package signature

import (
	"testing"

	"repro/internal/graph/graphtest"
)

func benchmarkBuild(b *testing.B, method Method) {
	g := graphtest.Random(2000, 10000, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, DefaultDepth, g.NumLabels(), method); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildMatrix(b *testing.B)      { benchmarkBuild(b, Matrix) }
func BenchmarkBuildExploration(b *testing.B) { benchmarkBuild(b, Exploration) }

func BenchmarkSatisfies(b *testing.B) {
	g := graphtest.Random(500, 2500, 8, 2)
	s := MustBuild(g, DefaultDepth, g.NumLabels(), Matrix)
	a, c := s.Row(0), s.Row(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Satisfies(a, c)
	}
}

func BenchmarkScore(b *testing.B) {
	g := graphtest.Random(500, 2500, 8, 3)
	s := MustBuild(g, DefaultDepth, g.NumLabels(), Matrix)
	a, c := s.Row(0), s.Row(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(a, c)
	}
}
