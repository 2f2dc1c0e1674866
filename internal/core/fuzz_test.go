package core

import (
	"bytes"
	"testing"

	"github.com/oiraid/oiraid/internal/layout"
)

// FuzzLayoutJSON: the path a custom layout takes into the program —
// ReadDump, Dump.Scheme (layout.Validate), NewAnalyzer with its write-plan
// build — refuses whatever it cannot serve with an error, never a panic,
// and a scheme it accepts has a plan for every data strip.
func FuzzLayoutJSON(f *testing.F) {
	r5, _ := layout.NewRAID5(4)
	for _, s := range []layout.Scheme{oiAnalyzer(f, 9).Scheme(), r5} {
		var buf bytes.Buffer
		if err := layout.Export(s).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Two parities feeding each other: valid to layout.Validate, cyclic.
	f.Add([]byte(`{"disks":3,"slots_per_disk":1,"data_strips":[[0,0]],"stripes":[` +
		`{"data":2,"strips":[[0,0],[1,0],[2,0]]},{"data":1,"strips":[[2,0],[1,0]]}]}`))
	f.Add([]byte(`{"disks":1000000000,"slots_per_disk":1000000000}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := layout.ReadDump(bytes.NewReader(raw))
		if err != nil {
			return
		}
		s, err := d.Scheme()
		if err != nil {
			return
		}
		a, err := NewAnalyzer(s)
		if err != nil {
			return
		}
		for _, st := range s.DataStrips() {
			if plan := a.WritePlan(st); len(plan.Strips) == 0 || plan.Strips[0] != st {
				t.Fatalf("accepted scheme has no write plan for data strip %v", st)
			}
		}
	})
}
