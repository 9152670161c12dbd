package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("empty -only: %d experiments, err %v; want all %d", len(all), err, len(experiments))
	}

	got, err := selectExperiments(" e19,E1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].id != "E1" || got[1].id != "E19" {
		t.Fatalf("-only e19,E1 picked %v, want [E1 E19] in suite order", ids(got))
	}

	for _, only := range []string{"E99", "E1,E16", "E20"} {
		got, err := selectExperiments(only)
		if err == nil {
			t.Fatalf("-only %s accepted, picked %v", only, ids(got))
		}
		if !strings.Contains(err.Error(), "known: E1, E2") {
			t.Fatalf("-only %s error does not list the known ids: %v", only, err)
		}
	}
}

func ids(exs []experiment) []string {
	out := make([]string, len(exs))
	for i, ex := range exs {
		out[i] = ex.id
	}
	return out
}
