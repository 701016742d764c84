package psi

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/graphtest"
	"repro/internal/plan"
)

// enumeratePlans returns all valid plans for q, in a deterministic
// order, up to max (<=0 means unbounded).
func enumeratePlans(q graph.Query, max int) []plan.Plan {
	n := q.G.NumNodes()
	var out []plan.Plan
	if n == 0 {
		return out
	}
	cur := make(plan.Plan, 1, n)
	cur[0] = q.Pivot
	inPlan := make([]bool, n)
	inPlan[q.Pivot] = true
	var rec func() bool
	rec = func() bool {
		if len(cur) == n {
			cp := make(plan.Plan, n)
			copy(cp, cur)
			out = append(out, cp)
			return max > 0 && len(out) >= max
		}
		for v := graph.NodeID(0); int(v) < n; v++ {
			if inPlan[v] {
				continue
			}
			connected := false
			for _, w := range q.G.Neighbors(v) {
				if inPlan[w] {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			inPlan[v] = true
			cur = append(cur, v)
			done := rec()
			cur = cur[:len(cur)-1]
			inPlan[v] = false
			if done {
				return true
			}
		}
		return false
	}
	rec()
	return out
}

func TestEnumeratePlans(t *testing.T) {
	q := graphtest.Figure1Query() // triangle, pivot v1: both orders valid
	plans := enumeratePlans(q, 0)
	if len(plans) != 2 {
		t.Fatalf("triangle has %d plans, want 2", len(plans))
	}
	for _, p := range plans {
		if err := plan.Validate(q, p); err != nil {
			t.Errorf("enumerated plan %v invalid: %v", p, err)
		}
	}
	// The Figure 2 query: count by hand. Valid orders from pivot v1 keep
	// prefixes connected; v4 must come after v3, v0 anywhere after v1.
	q2 := graphtest.Figure2Query()
	plans2 := enumeratePlans(q2, 0)
	for _, p := range plans2 {
		if err := plan.Validate(q2, p); err != nil {
			t.Errorf("plan %v invalid: %v", p, err)
		}
	}
	// Cross-check the count against brute force over all permutations.
	want := bruteForcePlanCount(q2)
	if len(plans2) != want {
		t.Errorf("Enumerate found %d plans, brute force %d", len(plans2), want)
	}
	// max caps the output.
	if got := enumeratePlans(q2, 3); len(got) != 3 {
		t.Errorf("enumeratePlans(max=3) returned %d", len(got))
	}
}

func bruteForcePlanCount(q graph.Query) int {
	n := q.G.NumNodes()
	perm := make(plan.Plan, n)
	used := make([]bool, n)
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if plan.Validate(q, perm) == nil {
				count++
			}
			return
		}
		for v := graph.NodeID(0); int(v) < n; v++ {
			if !used[v] {
				used[v] = true
				perm[i] = v
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return count
}
