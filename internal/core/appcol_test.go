package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
)

// TestSearchCSVAppColumn: sweeps stamp the synthetic trainer into the
// trailing app column.
func TestSearchCSVAppColumn(t *testing.T) {
	sr, err := Exhaustive(hw.I7_2600K(), tinySpace(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != searchCSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(searchCSVHeader, ",app") {
		t.Fatalf("header %q lacks the app column", searchCSVHeader)
	}
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",synthetic") {
			t.Fatalf("sweep row %q not stamped with the synthetic app", line)
		}
	}
}

// TestReadCSVLegacyFormat: pre-app-column files (10-field header and
// rows) no longer load; nothing in the repository writes them.
func TestReadCSVLegacyFormat(t *testing.T) {
	const header = "system,dim,tsize,dsize,cpu_tile,band,gpu_tile,halo,rtime_ns,censored"
	row := "i7-2600K,700,10,1,8,-1,1,-1,2.5e8,false"
	if _, err := ReadCSV(strings.NewReader(header + "\n" + row)); err == nil {
		t.Error("10-field header accepted")
	}
	if _, err := ReadCSV(strings.NewReader(searchCSVHeader + "\n" + row)); err == nil {
		t.Error("10-field row accepted")
	}
	if _, err := parseSearchRow(row); err == nil {
		t.Error("parseSearchRow accepted a 10-field row")
	}
}

// TestObservationLogAppColumn: observations carry their app name into
// the CSV, and the file round-trips through wavetrain's reader.
func TestObservationLogAppColumn(t *testing.T) {
	l, err := NewObservationLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.Instance{Dim: 700, TSize: 1500, DSize: 4}
	par := plan.Params{CPUTile: 8, Band: 300, GPUTile: 4, Halo: -1}
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 1e8, App: "nash"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(l.Path("i7-2600K"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ",nash\n") {
		t.Errorf("log row lacks the app column:\n%s", data)
	}
	f, err := os.Open(l.Path("i7-2600K"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadCSV(f); err != nil {
		t.Errorf("app-stamped log rejected by the reader: %v", err)
	}

	// An app name that would break the row format is rejected up front.
	if err := l.Append("i7-2600K", Observation{Inst: inst, Par: par, RTimeNs: 1e8, App: "bad,app"}); err == nil {
		t.Error("comma-carrying app name accepted")
	}
}
