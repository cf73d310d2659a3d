package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzObservationLogRead fuzzes the search-CSV row grammar and both
// readers built on it. Properties: parsing never panics; a row that
// parses re-renders through writeSearchRow to a canonical line that (a)
// parses back to the same semantic values and (b) is a fixed point of
// render-parse-render; and the strict and lenient file readers survive
// arbitrary input without panicking.
func FuzzObservationLogRead(f *testing.F) {
	seeds := []string{
		// Current 11-field row with app column, square shape.
		"i7-2600K,1900,200,1,8,96,64,2,5.5e+08,false,synthetic",
		// A 10-field row without the app column: rejected.
		"i7-2600K,1900,200,1,8,96,64,2,5.5e+08,false",
		// Rectangular shape, censored, named app.
		"i3-540,600x1400,3000,5,16,0,0,0,1.25e+09,true,lu",
		searchCSVHeader,
		// The 10-field header without the app column: rejected.
		"system,dim,tsize,dsize,cpu_tile,band,gpu_tile,halo,rtime_ns,censored",
		"",
		"not,a,row",
		"i7-2600K,19f00,200,1,8,96,64,2,5.5e+08,false,app",
		"i7-2600K,1900,200,1,8,96,64,2,NaN,false,x",
		"i7-2600K,0x7,-200,1,8,96,64,2,1,1,",
		searchCSVHeader + "\ni7-2600K,1900,200,1,8,96,64,2,5.5e+08,false,refine\ngarbage row",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	floatEq := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	f.Fuzz(func(t *testing.T, data string) {
		row, err := parseSearchRow(strings.TrimSpace(data))
		if err == nil {
			var buf bytes.Buffer
			writeSearchRow(&buf, row.System, row.Inst, row.Par, row.RTimeNs, row.Censored, row.App)
			canon := buf.String()
			row2, err2 := parseSearchRow(strings.TrimSpace(canon))
			if err2 != nil {
				t.Fatalf("accepted row does not round-trip: %q -> %q: %v", data, canon, err2)
			}
			if row2.System != row.System || row2.App != row.App ||
				row2.Par != row.Par || row2.Censored != row.Censored ||
				!floatEq(row2.RTimeNs, row.RTimeNs) {
				t.Fatalf("round-trip changed values: %+v -> %+v (via %q)", row, row2, canon)
			}
			n1, n2 := row.Inst.Normalize(), row2.Inst.Normalize()
			if n1.ShapeString() != n2.ShapeString() || n1.DSize != n2.DSize || !floatEq(n1.TSize, n2.TSize) {
				t.Fatalf("round-trip changed instance: %+v -> %+v (via %q)", row.Inst, row2.Inst, canon)
			}
			buf.Reset()
			writeSearchRow(&buf, row2.System, row2.Inst, row2.Par, row2.RTimeNs, row2.Censored, row2.App)
			if buf.String() != canon {
				t.Fatalf("canonical render not a fixed point: %q != %q", buf.String(), canon)
			}
		}
		// The file readers must never panic, whatever the bytes.
		_, _ = ReadCSV(strings.NewReader(data))
		_, _, _ = ReadObservationLog(strings.NewReader(data), "i7-2600K")
	})
}
