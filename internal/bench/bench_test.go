package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<ID>.csv from the current tables")

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E15", "E17", "A1", "A2", "A3", "A4"}
	for _, id := range want {
		if Find(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if Find("e1") == nil {
		t.Error("Find not case-insensitive")
	}
	if Find("nope") != nil {
		t.Error("Find returned a bogus experiment")
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID: "X", Title: "demo", PaperClaim: "claim",
		Headers: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	table.AddRow("1", "2")
	for _, format := range []string{"text", "md", "csv"} {
		var buf bytes.Buffer
		table.Render(&buf, format)
		out := buf.String()
		for _, want := range []string{"demo", "1", "2"} {
			if !strings.Contains(out, want) {
				t.Errorf("format %s missing %q:\n%s", format, want, out)
			}
		}
	}
	var md bytes.Buffer
	table.Render(&md, "md")
	if !strings.Contains(md.String(), "| a | b |") {
		t.Errorf("markdown header broken:\n%s", md.String())
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode: the
// suite is the reproduction harness, so it must run to completion,
// produce plausible tables, and reproduce each table's CSV rendering
// byte for byte from testdata/<ID>.csv (regenerate with -update after a
// deliberate change to an experiment).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table := e.Run(true)
			if table.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Error("experiment produced no rows")
			}
			if table.PaperClaim == "" {
				t.Error("missing paper claim")
			}
			for _, r := range table.Rows {
				if len(r) != len(table.Headers) {
					t.Errorf("row width %d != header width %d", len(r), len(table.Headers))
				}
			}
			var csv bytes.Buffer
			table.Render(&csv, "csv")
			golden := filepath.Join("testdata", e.ID+".csv")
			if *update {
				if err := os.WriteFile(golden, csv.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv.Bytes(), want) {
				t.Errorf("table differs from %s:\ngot:\n%swant:\n%s", golden, csv.Bytes(), want)
			}
		})
	}
}
