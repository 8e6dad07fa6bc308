package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	for _, name := range order {
		if _, ok := experiments[name]; !ok {
			t.Errorf("order lists %q, which is not an experiment", name)
		}
	}
	if len(order) != len(experiments) {
		t.Errorf("order has %d names for %d experiments: \"all\" would skip some", len(order), len(experiments))
	}
	for list, want := range map[string][]string{
		"all":                 order,
		"fig7":                {"fig7"},
		"fig5, FIG7 ,table2":  {"fig5", "fig7", "table2"},
		"table1,table1,fig12": {"table1", "table1", "fig12"},
	} {
		if got, err := parseExperiments(list); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseExperiments(%q) = %v, %v; want %v", list, got, err, want)
		}
	}
	for _, list := range []string{"fig13", "fig5,,fig7", "", "all,fig5"} {
		if got, err := parseExperiments(list); err == nil || !strings.Contains(err.Error(), "fig12") {
			t.Errorf("parseExperiments(%q) = %v, %v; want an error listing the valid names", list, got, err)
		}
	}
}
