package smartpsi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/psi"
)

// countLeaves calls fn with every int and int64 leaf (counts and
// time.Durations) reachable from v through structs, arrays and slices,
// and its path.
func countLeaves(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			countLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			countLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// probeCounts returns Counts whose slices have room for a probe in every
// element.
func probeCounts() *Counts {
	c := &Counts{PlanPicks: make([]int64, 2)}
	c.Depths = make([]psi.Stats, 2)
	return c
}

// TestMergeIntoCoversAllCounters is the reflection guard of Counts.Add, the one fold
// of a query's counts: execute's worker join, the shard gather and a
// fleet coordinator's gather all sum through it. Each int and int64 leaf
// of Counts — plain fields, Alpha, the psi.Stats blocks, and each
// element of the array and slice tallies — is set alone and added twice
// into empty Counts. It must come out doubled, with every other leaf
// zero: twice catches `=` written where `+=` was meant, and probing
// leaves one by one names each dropped or misrouted leaf.
func TestMergeIntoCoversAllCounters(t *testing.T) {
	var paths []string
	countLeaves(reflect.ValueOf(probeCounts()).Elem(), "", func(path string, _ reflect.Value) {
		paths = append(paths, path)
	})
	var bad []string
	for _, probe := range paths {
		o := probeCounts()
		countLeaves(reflect.ValueOf(o).Elem(), "", func(path string, f reflect.Value) {
			if path == probe {
				f.SetInt(7)
			}
		})
		var c Counts
		c.Add(o)
		c.Add(o)
		found, stray := false, false
		countLeaves(reflect.ValueOf(&c).Elem(), "", func(path string, f reflect.Value) {
			if path == probe {
				found = f.Int() == 14
			} else if f.Int() != 0 {
				stray = true
			}
		})
		if !found || stray {
			bad = append(bad, probe)
		}
	}
	if len(bad) > 0 {
		t.Fatalf("Counts.Add drops or misroutes %s; sum each leaf into itself", strings.Join(bad, ", "))
	}
	if len(paths) < 52 {
		t.Fatalf("probed only %d Counts leaves; did their types change?", len(paths))
	}
}
