package psi_test

import (
	"repro/internal/match"
	"repro/internal/psi"
)

func init() {
	psi.MatchSeeds["cfl"] = match.CFLSeed
	psi.MatchSeeds["graphql"] = match.GraphQLSeed
}
