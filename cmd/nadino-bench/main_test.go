package main

import (
	"reflect"
	"strings"
	"testing"

	"nadino/internal/experiments"
)

func ids(es []experiments.Experiment) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.ID)
	}
	return out
}

func TestSelectExperiments(t *testing.T) {
	resilience := ids(experiments.Resilience())
	for _, tc := range []struct {
		run  string
		want []string
	}{
		{"resilience,clone-chaos", append(append([]string(nil), resilience...), "clone-chaos")},
		{"fig06, fig12,fig06", []string{"fig06", "fig12"}},
		{"clone-chaos,clone", []string{"clone-chaos", "clone-sweep"}},
		{resilience[0] + ",resilience", resilience},
		{"fuzz", []string{"fuzz"}},
	} {
		got, err := selectExperiments(tc.run)
		if err != nil {
			t.Fatalf("-run %s: %v", tc.run, err)
		}
		if !reflect.DeepEqual(ids(got), tc.want) {
			t.Errorf("-run %s selected %v, want %v", tc.run, ids(got), tc.want)
		}
	}
}

// TestSelectGroupAlone pins each group name on its own to the experiments
// it selected before groups could appear inside a list.
func TestSelectGroupAlone(t *testing.T) {
	for name, g := range groups {
		got, err := selectExperiments(name)
		if err != nil {
			t.Fatalf("-run %s: %v", name, err)
		}
		if want := ids(g()); !reflect.DeepEqual(ids(got), want) {
			t.Errorf("-run %s selected %v, want %v", name, ids(got), want)
		}
	}
	if len(groups) != 6 {
		t.Errorf("%d groups, want all, everything, ablations, resilience, fabric and clone", len(groups))
	}
}

func TestSelectUnknown(t *testing.T) {
	for _, run := range []string{"fig99", "resilience,nope", "fig06,"} {
		if got, err := selectExperiments(run); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-run %q selected %v with error %v, want an unknown-experiment error", run, ids(got), err)
		}
	}
}
