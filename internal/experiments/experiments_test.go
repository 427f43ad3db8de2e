package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
		"E20", "E21", "E22", "E23", "E24", "E25", "E26"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %s want %s", i, ids[i], id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, ok := Run("E99"); ok {
		t.Error("unknown experiment ran")
	}
}

// TestAllExperimentsPass regenerates every table and checks its
// expectations — this is the repository's "reproduce the paper" switch.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, ok := Run(id)
			if !ok {
				t.Fatal("missing")
			}
			if !tab.Pass {
				t.Errorf("experiment failed:\n%s", tab.Format())
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
		})
	}
}

func TestTableFormats(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Pass:    true,
		Notes:   []string{"n1"},
	}
	text := tab.Format()
	for _, want := range []string{"EX — demo", "claim: c", "333", "PASS", "note: n1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q:\n%s", want, text)
		}
	}
	md := tab.Markdown()
	for _, want := range []string{"### EX", "| a | bb |", "| --- | --- |", "**PASS**"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	tab.Pass = false
	if !strings.Contains(tab.Format(), "FAIL") {
		t.Error("FAIL not rendered")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations time real work")
	}
	if _, _, agree := AblationLevels(4); !agree {
		t.Error("SCC levels disagree with pairwise can.know.f")
	}
	if _, _, agree := AblationRelang(4); !agree {
		t.Error("DFA search disagrees with NFA search")
	}
	inc, re := AblationIncremental(6)
	if inc <= 0 || re <= 0 {
		t.Error("ablation timings empty")
	}
	if _, _, agree := AblationClosure(4); !agree {
		t.Error("lazy and eager can.know.f disagree")
	}
}
