package invariant_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/obs"
)

func TestCheckFunnelAcceptsMonotone(t *testing.T) {
	cases := [][]obs.FunnelDepth{
		nil,
		{{}},
		{
			{Generated: 10, DegOK: 10, SigOK: 7, Recursed: 7, Matched: 0},
			{Generated: 3, DegOK: 2, SigOK: 1, Recursed: 1, Matched: 1},
		},
	}
	for i, f := range cases {
		if err := invariant.CheckFunnel(f); err != nil {
			t.Errorf("case %d: valid funnel rejected: %v", i, err)
		}
	}
}

func TestCheckFunnelRejectsViolations(t *testing.T) {
	cases := []struct {
		name      string
		f         []obs.FunnelDepth
		wantError string
	}{
		{
			name:      "stage exceeds predecessor",
			f:         []obs.FunnelDepth{{Generated: 5, DegOK: 6}},
			wantError: "deg-ok (6) exceeds generated (5)",
		},
		{
			name: "violation at deeper depth",
			f: []obs.FunnelDepth{
				{Generated: 5, DegOK: 5, SigOK: 5, Recursed: 5, Matched: 5},
				{Generated: 2, DegOK: 1, SigOK: 1, Recursed: 1, Matched: 2},
			},
			wantError: "depth 1: matched (2) exceeds recursed (1)",
		},
		{
			name:      "negative stage",
			f:         []obs.FunnelDepth{{Generated: -1}},
			wantError: "stage generated is negative",
		},
	}
	for _, tc := range cases {
		err := invariant.CheckFunnel(tc.f)
		if err == nil {
			t.Errorf("%s: invalid funnel accepted", tc.name)
			continue
		}
		var v *invariant.Violation
		if !errors.As(err, &v) || v.Subsystem != "funnel" {
			t.Errorf("%s: error %v is not a funnel Violation", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantError) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantError)
		}
	}
}
