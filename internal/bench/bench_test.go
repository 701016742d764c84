package bench

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/psi"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config {
	return Config{
		Sizes:             []int{4, 5},
		QueriesPerSize:    2,
		PerQueryBudget:    150 * time.Millisecond,
		EmbeddingCap:      20_000,
		Workers:           []int{1, 2},
		MiningSupportFrac: 0.15,
		MiningMaxEdges:    2,
	}
}

// tinyEnv shrinks every dataset hard so each experiment runs in
// milliseconds-to-seconds.
func tinyEnv() *Env { return NewEnv(16, 7) }

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	env := tinyEnv()
	cfg := tinyConfig()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(env, cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") {
				t.Errorf("%s: no table rendered:\n%s", e.Name, out)
			}
			t.Logf("\n%s", out)
		})
	}
}

// BenchmarkExperiments runs every psi-bench experiment on the smoke
// tests' tiny env and config: `go test -bench` runs the code psi-bench
// prints.
func BenchmarkExperiments(b *testing.B) {
	env, cfg := tinyEnv(), tinyConfig()
	for _, e := range Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(env, cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("table1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestEnvCaches(t *testing.T) {
	env := tinyEnv()
	g1, err := env.Graph("yeast")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := env.Graph("yeast")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("graph not cached")
	}
	e1, err := env.Engine("yeast")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := env.Engine("yeast")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("engine not cached")
	}
	q1, err := env.Queries("yeast", 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := env.Queries("yeast", 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("queries not cached")
	}
	if _, err := env.Graph("bogus"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestFormatters(t *testing.T) {
	if got := FormatCount(123, false); got != "123" {
		t.Errorf("FormatCount(123) = %q", got)
	}
	if got := FormatCount(1_300_000, false); got != "1.3e6" {
		t.Errorf("FormatCount(1.3M) = %q", got)
	}
	if got := FormatCount(50_000, true); !strings.HasPrefix(got, ">=") {
		t.Errorf("capped count = %q", got)
	}
	if got := FormatDuration(1500 * time.Microsecond); got != "2ms" && got != "1ms" {
		t.Errorf("FormatDuration(1.5ms) = %q", got)
	}
	if got := FormatDuration(12 * time.Second); got != "12.0s" {
		t.Errorf("FormatDuration(12s) = %q", got)
	}
	if got := FormatDuration(100 * time.Microsecond); got != "0.10ms" {
		t.Errorf("FormatDuration(100us) = %q", got)
	}
	c := cell{total: time.Second, done: 1, n: 1, censored: 1}
	if !strings.HasPrefix(c.String(), ">") {
		t.Errorf("censored cell = %q", c.String())
	}
}

// TestRunWorkCell drives runCell with a fake system: a censored query
// does not end the cell, the censored count covers only the queries that
// ran, and a cell cut short by its cumulative budget prints how many of
// its queries it ran.
func TestRunWorkCell(t *testing.T) {
	const n = 10
	for _, tc := range []struct {
		name      string
		perQuery  time.Duration
		run       func(i int) (int64, bool, error)
		wantDone  int
		wantUnits int64
		wantCens  int
		wantCell  string // the printed cell after its time
	}{
		{"first censored", time.Hour, func(i int) (int64, bool, error) {
			return 1, i == 0, nil
		}, n, 9, 1, "9u 1c"},
		{"all censored", time.Hour, func(int) (int64, bool, error) {
			return 1, true, nil
		}, n, 0, n, "0u 10c"},
		{"none censored", time.Hour, func(int) (int64, bool, error) {
			return 1, false, nil
		}, n, n, 0, "10u 0c"},
		{"budget spent at query 3", 20 * time.Millisecond, func(i int) (int64, bool, error) {
			if i == 2 {
				time.Sleep(n * 20 * time.Millisecond)
			}
			return 1, false, nil
		}, 3, 3, 0, "3/10q 3u 0c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			sys := func(graph.Query, time.Time) (int64, error) {
				units, censored, err := tc.run(i)
				i++
				if censored {
					err = psi.ErrDeadline
				}
				return units, err
			}
			c, err := runCell(tc.perQuery, make([]graph.Query, n), sys)
			if err != nil {
				t.Fatal(err)
			}
			if c.done != tc.wantDone || c.units != tc.wantUnits || c.censored != tc.wantCens {
				t.Errorf("ran %d, units %d, censored %d; want %d, %d, %d",
					c.done, c.units, c.censored, tc.wantDone, tc.wantUnits, tc.wantCens)
			}
			fields := strings.Fields(c.String())
			wantOpen := tc.wantCens > 0 || tc.wantDone < n
			if got := strings.HasPrefix(fields[0], ">"); got != wantOpen {
				t.Errorf("cell %q: censored mark %v, want %v", c, got, wantOpen)
			}
			if got := strings.Join(fields[1:], " "); got != tc.wantCell {
				t.Errorf("cell %q prints %q after its time, want %q", c, got, tc.wantCell)
			}
		})
	}
}

// TestTable2Cells runs Table 2's systems through the runner: a query
// whose match engine returns match.ErrBudget is censored, a system that
// counts no work prints no units, and SmartPSI prints its.
func TestTable2Cells(t *testing.T) {
	env := tinyEnv()
	for _, tc := range []struct {
		perQuery time.Duration
		want     string // the table's rows, whitespace folded
	}{
		// The deadline has passed when the engine starts: the first query
		// is censored and spends the cell's budget.
		{time.Nanosecond, `TurboIso (>\S+ 1/2q 1c ){2}TurboIso\+ (>\S+ 1/2q 1c ){2}SmartPSI `},
		{time.Hour, `TurboIso (\S+ 0c ){2}TurboIso\+ (\S+ 0c ){2}SmartPSI (\S+ \d+u 0c ?){2}$`},
	} {
		cfg := tinyConfig()
		cfg.PerQueryBudget = tc.perQuery
		var buf bytes.Buffer
		if err := Table2(env, cfg, &buf); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(strings.Fields(buf.String()), " "); !regexp.MustCompile(tc.want).MatchString(got) {
			t.Errorf("budget %v: Table 2 prints\n%s\nwant rows matching %s", tc.perQuery, buf.String(), tc.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.Add(1, "x")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "b", "1", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestIntersectSizes(t *testing.T) {
	got := intersectSizes([]int{3, 4, 5, 9}, 4, 7)
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("intersectSizes = %v", got)
	}
	got = intersectSizes([]int{9}, 4, 7)
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("empty intersection fallback = %v", got)
	}
}
