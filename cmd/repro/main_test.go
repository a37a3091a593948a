package main

import (
	"reflect"
	"strings"
	"testing"
)

func selectedKeys(t *testing.T, only string) []string {
	t.Helper()
	sel, err := selectExperiments(only)
	if err != nil {
		t.Fatalf("selectExperiments(%q): %v", only, err)
	}
	keys := []string{}
	for _, e := range sel {
		keys = append(keys, e.key)
	}
	return keys
}

func TestSelectExperiments(t *testing.T) {
	all := experimentKeys()
	if got := selectedKeys(t, ""); !reflect.DeepEqual(got, all) {
		t.Fatalf("empty -only selected %v, want every key %v", got, all)
	}
	// Selection follows table order, not -only order, and tolerates spaces,
	// repeats and stray commas.
	if got, want := selectedKeys(t, "fig7, table1,fig7,"), []string{"table1", "fig7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for _, k := range all {
		if got := selectedKeys(t, k); !reflect.DeepEqual(got, []string{k}) {
			t.Fatalf("-only %s selected %v", k, got)
		}
	}

	// A deleted or misspelled key is refused, and the error lists the valid
	// keys.
	_, err := selectExperiments("table1,fleet")
	if err == nil {
		t.Fatal("-only fleet accepted")
	}
	if !strings.Contains(err.Error(), `fleet`) || !strings.Contains(err.Error(), strings.Join(all, ",")) {
		t.Fatalf("error %q does not name the bad key and list the valid ones", err)
	}
}
