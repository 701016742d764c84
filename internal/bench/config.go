package bench

import "time"

// Config scales an experiment run. Full() approximates the paper's setup
// at laptop scale; Quick() keeps the whole suite under a few minutes.
type Config struct {
	// Sizes are the query sizes swept (paper: 4-10).
	Sizes []int
	// QueriesPerSize is the workload width (paper: 1000, or 100/10 for
	// the heavyweight comparisons).
	QueriesPerSize int
	// PerQueryBudget caps each single query evaluation, standing in for
	// the paper's 24-hour task limit. A cell with a censored query
	// prints its time ">"-marked and its censored count.
	PerQueryBudget time.Duration
	// EmbeddingCap bounds full-isomorphism enumeration in Table 1.
	EmbeddingCap int64
	// Workers is the Figure 12 scaling sweep.
	Workers []int
	// MiningSupportFrac sets the Figure 12 support threshold as a
	// fraction of the graph's node count.
	MiningSupportFrac float64
	// MiningMaxEdges caps mined pattern size (paper: 6 for Weibo).
	MiningMaxEdges int
}

// Full returns the laptop-scale approximation of the paper's setup.
func Full() Config {
	return Config{
		Sizes:             []int{4, 5, 6, 7, 8, 9, 10},
		QueriesPerSize:    10,
		PerQueryBudget:    2 * time.Second,
		EmbeddingCap:      20_000_000,
		Workers:           []int{1, 2, 4, 8, 16, 32},
		MiningSupportFrac: 0.05,
		MiningMaxEdges:    3,
	}
}

// Quick returns a configuration for fast regression runs.
func Quick() Config {
	return Config{
		Sizes:             []int{4, 5, 6},
		QueriesPerSize:    3,
		PerQueryBudget:    300 * time.Millisecond,
		EmbeddingCap:      200_000,
		Workers:           []int{1, 2, 4},
		MiningSupportFrac: 0.05,
		MiningMaxEdges:    3,
	}
}
