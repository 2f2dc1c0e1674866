package layout

import (
	"encoding/json"
	"fmt"
	"io"
)

// Dump is the JSON-serialisable form of a Scheme: the complete strip map
// and coding relations. It lets external tooling inspect a layout and lets
// users run the whole stack — analysis, simulation, byte-accurate arrays —
// on hand-crafted or machine-generated custom layouts.
type Dump struct {
	Name         string `json:"name"`
	Disks        int    `json:"disks"`
	SlotsPerDisk int    `json:"slots_per_disk"`
	// BandWidth, when non-zero, is the physically contiguous band size in
	// slots (see Bander).
	BandWidth  int          `json:"band_width,omitempty"`
	Stripes    []DumpStripe `json:"stripes"`
	DataStrips [][2]int     `json:"data_strips"` // [disk, slot] in logical order
}

// DumpStripe is one coding relation in a Dump.
type DumpStripe struct {
	// Layer: 0 inner, 1 outer.
	Layer int `json:"layer"`
	// Data is the number of data members; the rest are parity.
	Data int `json:"data"`
	// Strips lists [disk, slot] members, data first.
	Strips [][2]int `json:"strips"`
}

// Export captures any Scheme as a Dump.
func Export(s Scheme) *Dump {
	d := &Dump{
		Name:         s.Name(),
		Disks:        s.Disks(),
		SlotsPerDisk: s.SlotsPerDisk(),
	}
	if b, ok := s.(Bander); ok {
		d.BandWidth = b.BandWidth()
	}
	for _, stripe := range s.Stripes() {
		ds := DumpStripe{Layer: int(stripe.Layer), Data: stripe.Data}
		for _, st := range stripe.Strips {
			ds.Strips = append(ds.Strips, [2]int{st.Disk, st.Slot})
		}
		d.Stripes = append(d.Stripes, ds)
	}
	for _, st := range s.DataStrips() {
		d.DataStrips = append(d.DataStrips, [2]int{st.Disk, st.Slot})
	}
	return d
}

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDump parses a JSON dump.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("layout: parse dump: %w", err)
	}
	return &d, nil
}

// Custom is a Scheme reconstructed from a Dump — the extension point for
// layouts authored outside this library.
type Custom struct {
	name       string
	disks      int
	slots      int
	bandWidth  int
	stripes    []Stripe
	dataStrips []Strip
}

var (
	_ Scheme = (*Custom)(nil)
	_ Bander = (*Custom)(nil)
)

// Scheme materialises the dump as a validated Scheme. All structural
// invariants of Validate must hold.
func (d *Dump) Scheme() (*Custom, error) {
	c := &Custom{
		name:      d.Name,
		disks:     d.Disks,
		slots:     d.SlotsPerDisk,
		bandWidth: d.BandWidth,
	}
	if c.name == "" {
		c.name = "custom"
	}
	if c.bandWidth == 0 {
		c.bandWidth = d.SlotsPerDisk
	}
	if c.slots <= 0 || c.bandWidth <= 0 || c.slots%c.bandWidth != 0 {
		return nil, fmt.Errorf("layout: dump band width %d does not divide slots %d", d.BandWidth, d.SlotsPerDisk)
	}
	members := 0
	for si, ds := range d.Stripes {
		stripe := Stripe{Data: ds.Data, Layer: Layer(ds.Layer)}
		for _, pair := range ds.Strips {
			stripe.Strips = append(stripe.Strips, Strip{Disk: pair[0], Slot: pair[1]})
		}
		if ds.Data < 0 || ds.Data > len(stripe.Strips) {
			return nil, fmt.Errorf("layout: dump stripe %d has data count %d of %d members", si, ds.Data, len(stripe.Strips))
		}
		c.stripes = append(c.stripes, stripe)
		members += len(stripe.Strips)
	}
	// Every strip of a cycle is a member of some stripe, so a geometry with
	// more strips than the stripes have members cannot validate. Refusing
	// it here keeps a dump from sizing Validate's per-strip tables by two
	// numbers it made up.
	if d.Disks > members/c.slots {
		return nil, fmt.Errorf("layout: dump geometry %dx%d has more strips than its stripes have members (%d)", d.Disks, c.slots, members)
	}
	for _, pair := range d.DataStrips {
		c.dataStrips = append(c.dataStrips, Strip{Disk: pair[0], Slot: pair[1]})
	}
	if err := Validate(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements Scheme.
func (c *Custom) Name() string { return c.name }

// Disks implements Scheme.
func (c *Custom) Disks() int { return c.disks }

// SlotsPerDisk implements Scheme.
func (c *Custom) SlotsPerDisk() int { return c.slots }

// Stripes implements Scheme.
func (c *Custom) Stripes() []Stripe { return c.stripes }

// DataStrips implements Scheme.
func (c *Custom) DataStrips() []Strip { return c.dataStrips }

// BandWidth implements Bander.
func (c *Custom) BandWidth() int { return c.bandWidth }
