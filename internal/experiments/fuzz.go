package experiments

import (
	"fmt"
	"strings"

	"nadino/internal/simtest"
)

// FuzzShrinkBudget caps the candidate simulations spent minimizing each
// failing seed.
const FuzzShrinkBudget = 40

// fuzzShrinkMax bounds how many failing seeds get the full shrink
// treatment per sweep; the rest are still reported with repro commands.
const fuzzShrinkMax = 3

// Fuzz returns the deterministic-simulation fuzz sweep. It is addressable
// via -run fuzz (and Lookup) but deliberately not part of "everything":
// the sweep is a correctness gate, not a paper artifact, and it has its own
// make targets.
func Fuzz() []Experiment {
	return []Experiment{{
		ID:    "fuzz",
		Title: "Deterministic-simulation fuzz sweep (scenario generator + invariant registry)",
		Run:   RunFuzz,
	}}
}

// RunFuzz generates FuzzSeeds scenarios starting at o.Seed, runs each under
// the full invariant registry (sharded across workers — each scenario is
// its own engine, so results merge in seed order bitwise-identically), then
// shrinks the first failures to minimal counterexamples. Every failing seed
// is reported with the exact standalone repro command.
func RunFuzz(o Opts) []*Table {
	n := o.FuzzSeeds
	if n <= 0 {
		if o.Quick {
			n = 50
		} else {
			n = 200
		}
	}
	results := make([]*simtest.Result, n)
	o.forEach(n, func(i int) {
		sc := simtest.Generate(o.Seed + int64(i))
		sc.Defect = o.FuzzDefect
		results[i] = simtest.Run(sc)
	})

	var failed []*simtest.Result
	var issued, completed, drops uint64
	var faults, audits int
	for _, res := range results {
		issued += res.Issued
		completed += res.Completed
		drops += res.Drops
		faults += res.FaultsApplied
		audits += res.AuditOps
		if res.Failed() {
			failed = append(failed, res)
		}
	}

	summary := &Table{
		Title:   "Fuzz sweep summary",
		Columns: []string{"scenarios", "passed", "failed", "issued", "completed", "drops", "faults", "audit ops"},
		Rows: [][]string{{
			fmt.Sprint(n), fmt.Sprint(n - len(failed)), fmt.Sprint(len(failed)),
			fmt.Sprint(issued), fmt.Sprint(completed),
			fmt.Sprint(drops), fmt.Sprint(faults), fmt.Sprint(audits),
		}},
	}
	verdict := "CLEAN"
	if len(failed) > 0 {
		verdict = "FAILING"
	}
	summary.Note = fmt.Sprintf("verdict: %s — seeds %d..%d, %d invariants checked per scenario",
		verdict, o.Seed, o.Seed+int64(n)-1, len(simtest.Invariants()))
	tables := []*Table{summary}
	if len(failed) == 0 {
		return tables
	}

	fails := &Table{
		Title:   "Failing seeds",
		Columns: []string{"seed", "violations", "first violation", "repro"},
	}
	for _, res := range failed {
		first := res.Violations[0]
		fails.Rows = append(fails.Rows, []string{
			fmt.Sprint(res.Scenario.Seed),
			fmt.Sprint(len(res.Violations)),
			first.Invariant + ": " + first.Detail,
			res.ReproCommand(),
		})
	}
	tables = append(tables, fails)

	// Shrink the first few failures to minimal counterexamples. This runs
	// sequentially after the sweep so the output order is deterministic.
	shrunk := &Table{
		Title:   "Shrunk counterexamples",
		Columns: []string{"seed", "attempts", "steps", "minimal scenario", "still violates"},
	}
	for i, res := range failed {
		if i >= fuzzShrinkMax {
			shrunk.Note = fmt.Sprintf("shrinking capped at %d seeds; rerun the rest standalone", fuzzShrinkMax)
			break
		}
		sr := simtest.Shrink(res.Scenario, res, FuzzShrinkBudget)
		names := make([]string, 0, 4)
		for _, v := range sr.MinimalResult.Violations {
			if len(names) == 0 || names[len(names)-1] != v.Invariant {
				names = append(names, v.Invariant)
			}
		}
		shrunk.Rows = append(shrunk.Rows, []string{
			fmt.Sprint(res.Scenario.Seed),
			fmt.Sprint(sr.Attempts),
			strings.Join(sr.Steps, "; "),
			sr.Minimal.String(),
			strings.Join(names, ","),
		})
	}
	return append(tables, shrunk)
}
