package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareFixture builds a valid two-cell grid snapshot.
func compareFixture(t *testing.T) *GridReport {
	t.Helper()
	cfg := tiny()
	cfg.Simulate = true
	rep, err := RunGrid(cfg)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	return rep
}

func TestLoadGridJSONRoundTrip(t *testing.T) {
	rep := compareFixture(t)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := LoadGridJSON(data)
	if err != nil {
		t.Fatalf("LoadGridJSON: %v", err)
	}
	if len(got.Cells) != len(rep.Cells) {
		t.Fatalf("round trip lost cells: %d != %d", len(got.Cells), len(rep.Cells))
	}
	if _, err := LoadGridJSON([]byte(`{"schema":"bogus"}`)); err == nil {
		t.Fatal("LoadGridJSON accepted a wrong schema")
	}
}

func TestCompareGridsIdentical(t *testing.T) {
	rep := compareFixture(t)
	cmp := CompareGrids(rep, rep)
	if len(cmp.Matched) != len(rep.Cells) {
		t.Fatalf("matched %d of %d cells", len(cmp.Matched), len(rep.Cells))
	}
	if len(cmp.OnlyOld) != 0 || len(cmp.OnlyNew) != 0 {
		t.Fatalf("identical grids reported unmatched cells: %v / %v", cmp.OnlyOld, cmp.OnlyNew)
	}
	for _, metric := range CompareMetrics {
		var buf bytes.Buffer
		n, err := cmp.WriteTable(&buf, 25, metric)
		if err != nil {
			t.Fatalf("WriteTable(%s): %v", metric, err)
		}
		if n != 0 {
			t.Fatalf("identical grids regressed on %s:\n%s", metric, buf.String())
		}
		if !strings.Contains(buf.String(), "no regressions") {
			t.Fatalf("missing success footer:\n%s", buf.String())
		}
	}
}

func TestCompareGridsRegression(t *testing.T) {
	oldRep := compareFixture(t)
	data, _ := json.Marshal(oldRep)
	var newRep GridReport
	if err := json.Unmarshal(data, &newRep); err != nil {
		t.Fatalf("clone: %v", err)
	}
	// Inflate one cell's bit ops by 50% and another's wall by 2x.
	newRep.Cells[0].BitOps = oldRep.Cells[0].BitOps * 3 / 2
	last := len(newRep.Cells) - 1
	newRep.Cells[last].WallSeconds = oldRep.Cells[last].WallSeconds*2 + 1e-6

	cmp := CompareGrids(oldRep, &newRep)
	check := func(metric string, want int) {
		t.Helper()
		var buf bytes.Buffer
		n, err := cmp.WriteTable(&buf, 25, metric)
		if err != nil {
			t.Fatalf("WriteTable(%s): %v", metric, err)
		}
		if n != want {
			t.Fatalf("metric %s: %d regressions, want %d:\n%s", metric, n, want, buf.String())
		}
		if want > 0 && !strings.Contains(buf.String(), "REGRESSION") {
			t.Fatalf("metric %s: table missing REGRESSION flag:\n%s", metric, buf.String())
		}
	}
	check("bitops", 1)
	check("wall", 1)
	check("both", 2)

	// A generous threshold passes.
	var buf bytes.Buffer
	if n, _ := cmp.WriteTable(&buf, 500, "both"); n != 0 {
		t.Fatalf("threshold 500%% still regressed %d cells:\n%s", n, buf.String())
	}
}

func TestCompareGridsUnmatchedCellsDoNotGate(t *testing.T) {
	oldRep := compareFixture(t)
	newRep := &GridReport{Schema: GridSchema, Cells: oldRep.Cells[:1]}
	extra := oldRep.Cells[0]
	extra.Degree += 1000
	newRep.Cells = append([]GridCell{}, newRep.Cells...)
	newRep.Cells = append(newRep.Cells, extra)

	cmp := CompareGrids(oldRep, newRep)
	if len(cmp.Matched) != 1 {
		t.Fatalf("matched %d cells, want 1", len(cmp.Matched))
	}
	if len(cmp.OnlyOld) != len(oldRep.Cells)-1 || len(cmp.OnlyNew) != 1 {
		t.Fatalf("unmatched split wrong: onlyOld=%d onlyNew=%d", len(cmp.OnlyOld), len(cmp.OnlyNew))
	}
	var buf bytes.Buffer
	n, err := cmp.WriteTable(&buf, 25, "both")
	if err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if n != 0 {
		t.Fatalf("unmatched cells gated:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "only in old snapshot") ||
		!strings.Contains(buf.String(), "only in new snapshot") {
		t.Fatalf("unmatched cells not reported:\n%s", buf.String())
	}
}

func TestPctChangeZeroBaselines(t *testing.T) {
	if got := pctChange(0, 0); got != 0 {
		t.Fatalf("pctChange(0,0) = %v, want 0", got)
	}
	if got := pctChange(0, 5); got != 100 {
		t.Fatalf("pctChange(0,5) = %v, want 100", got)
	}
	if got := pctChange(10, 5); got != -50 {
		t.Fatalf("pctChange(10,5) = %v, want -50", got)
	}
}

// TestCommittedSnapshotsDecode loads every committed bench-grid
// snapshot through the -compare loader (which runs ValidateGridJSON
// first), so a schema or decoder change that strands a snapshot (say,
// a tier name it no longer knows) fails here rather than only in the
// CI gates that read the files.
func TestCommittedSnapshotsDecode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no results/BENCH_*.json snapshots found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGridJSON(data); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
