package layout

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/bibd"
)

// OIRAID is the paper's two-layer layout.
//
// Outer organisation: a resolvable (v, b, r, k, λ=1) BIBD over the v disks.
// Blocks are groups of k disks; the r parallel classes each partition the
// disks into c = v/k disjoint groups. Each disk is divided into r
// partitions, one per class; partition t of disk d belongs to the unique
// group of class t containing d.
//
// Inner layer: within each group, an MDS code across the group's k
// partitions — W stripe rows per cycle, k-pi data + pi parity strips per
// row, parity rotating over the k member positions (part of the skewed
// layout). The paper's configuration is pi = 1 (RAID5), the default;
// WithInnerParity(2) yields a RAID6-class inner code.
//
// Outer layer: within each parallel class, an MDS code across the class's
// c disjoint groups — each outer stripe takes one non-inner-parity strip
// from every group, po of them (rotating per stripe) being outer parity.
// A per-group skew offsets which strip each group contributes, staggering
// outer relations across rows.
//
// Properties with the paper's (pi=1, po=1) configuration (enforced by
// tests in package core):
//
//   - a single failed disk is rebuilt from all v-1 survivors in parallel,
//     each reading 1/r of a disk (λ=1 makes the failed disk's groups
//     pairwise disjoint elsewhere);
//   - any ≤3 disk failures are recoverable by alternating inner- and
//     outer-layer repairs (resolvability confines every outer stripe to
//     pairwise-disjoint groups, eliminating 3-failure deadlocks);
//   - a small write costs 4 strip writes: data, inner parity, outer
//     parity, and the outer parity's inner parity.
//
// Stronger codes extend these: guaranteed tolerance grows to 2pi+po+… (5
// for (2,1) and (1,2), measured exhaustively in tests) at the cost of
// storage efficiency (k-pi)(c-po)/(k·c) and update cost (1+pi)(1+po).
type OIRAID struct {
	design      *bibd.Design
	rows        int // W: inner stripe rows per partition per cycle
	skew        bool
	innerParity int // pi
	outerParity int // po

	stripes    []Stripe
	dataStrips []Strip
}

var _ Scheme = (*OIRAID)(nil)

// OIRAIDOption customises NewOIRAID.
type OIRAIDOption func(*oiraidConfig)

type oiraidConfig struct {
	rows        int
	skew        bool
	innerParity int
	outerParity int
}

// WithRows sets W, the number of inner stripe rows per partition per
// layout cycle. The default k·(v/k) makes both parity rotations come out
// exactly even; other values stay correct but may leave parity counts
// differing by one strip across disks.
func WithRows(w int) OIRAIDOption { return func(c *oiraidConfig) { c.rows = w } }

// WithSkew enables (default) or disables the per-group skew of outer
// stripe membership. Disabling it is only useful for the ablation study.
func WithSkew(on bool) OIRAIDOption { return func(c *oiraidConfig) { c.skew = on } }

// WithInnerParity sets pi, the parity strips per inner stripe (default 1
// = the paper's RAID5; 2 = RAID6-class inner code). Must satisfy
// 1 ≤ pi < k.
func WithInnerParity(pi int) OIRAIDOption { return func(c *oiraidConfig) { c.innerParity = pi } }

// WithOuterParity sets po, the parity strips per outer stripe (default
// 1). Must satisfy 1 ≤ po < v/k.
func WithOuterParity(po int) OIRAIDOption { return func(c *oiraidConfig) { c.outerParity = po } }

// NewOIRAID builds the two-layer layout from a verified resolvable λ=1
// design with v/k ≥ 2 groups per class.
func NewOIRAID(d *bibd.Design, opts ...OIRAIDOption) (*OIRAID, error) {
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("layout: oi-raid: %w", err)
	}
	if d.Lambda != 1 {
		return nil, fmt.Errorf("%w: oi-raid requires λ=1, design has λ=%d", errInvalidConfig, d.Lambda)
	}
	if !d.Resolvable() {
		return nil, fmt.Errorf("%w: oi-raid requires a resolvable design (outer stripes span disjoint groups)", errInvalidConfig)
	}
	c := d.V / d.K
	if c < 2 {
		return nil, fmt.Errorf("%w: oi-raid needs ≥ 2 groups per class, got %d", errInvalidConfig, c)
	}
	cfg := oiraidConfig{rows: d.K * c, skew: true, innerParity: 1, outerParity: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.rows < 1 {
		return nil, fmt.Errorf("%w: oi-raid rows %d < 1", errInvalidConfig, cfg.rows)
	}
	if cfg.innerParity < 1 || cfg.innerParity >= d.K {
		return nil, fmt.Errorf("%w: inner parity %d out of [1, k) with k=%d", errInvalidConfig, cfg.innerParity, d.K)
	}
	if cfg.outerParity < 1 || cfg.outerParity >= c {
		return nil, fmt.Errorf("%w: outer parity %d out of [1, v/k) with v/k=%d", errInvalidConfig, cfg.outerParity, c)
	}
	o := &OIRAID{
		design:      d,
		rows:        cfg.rows,
		skew:        cfg.skew,
		innerParity: cfg.innerParity,
		outerParity: cfg.outerParity,
	}
	o.buildStripes()
	return o, nil
}

// isInnerParity reports whether member position mi holds inner parity in
// row w: the pi positions form a circular window starting at w mod k.
func (o *OIRAID) isInnerParity(mi, w int) bool {
	k := o.design.K
	return (mi-w%k+k)%k < o.innerParity
}

// flatToStrip maps a group-local flat index f (enumerating the k-pi
// non-inner-parity strips of each row, row-major) to the physical strip,
// given the class t and the group's member disks.
func (o *OIRAID) flatToStrip(t int, members []int, f int) Strip {
	k := o.design.K
	dataPerRow := k - o.innerParity
	w := f / dataPerRow
	p := f % dataPerRow
	for mi := 0; mi < k; mi++ {
		if o.isInnerParity(mi, w) {
			continue
		}
		if p == 0 {
			return Strip{Disk: members[mi], Slot: t*o.rows + w}
		}
		p--
	}
	// Unreachable: p < dataPerRow by construction.
	panic("layout: oi-raid flat index out of range")
}

func (o *OIRAID) buildStripes() {
	d := o.design
	k, c, W := d.K, d.V/d.K, o.rows
	pi, po := o.innerParity, o.outerParity
	flats := (k - pi) * W

	// Inner stripes: per class, per group, per row; data members first,
	// then the pi parity members in window order.
	for t, class := range d.Classes {
		for _, bi := range class {
			members := d.Blocks[bi]
			for w := 0; w < W; w++ {
				stripe := Stripe{Data: k - pi, Layer: LayerInner}
				stripe.Strips = make([]Strip, 0, k)
				for mi, disk := range members {
					if !o.isInnerParity(mi, w) {
						stripe.Strips = append(stripe.Strips, Strip{Disk: disk, Slot: t*W + w})
					}
				}
				for j := 0; j < pi; j++ {
					mi := (w + j) % k
					stripe.Strips = append(stripe.Strips, Strip{Disk: members[mi], Slot: t*W + w})
				}
				o.stripes = append(o.stripes, stripe)
			}
		}
	}

	// Outer stripes: per class, the flats (non-inner-parity strips) of the
	// c groups are tied into flats-many stripes of one strip per group,
	// c-po data + po parity. Parity duty slides over the groups with
	// stride po (stripe oi → groups (oi·po+j) mod c); within each group
	// the parity duty round-robins over the k member disks, keeping outer
	// parity balanced per disk and avoiding arithmetic resonance between
	// the row structure and the group rotation. Data contributions are
	// consumed in flat order, rotated per group when skew is on.
	outerParitySet := make(map[Strip]bool, d.R()*flats*po/c)
	for t, class := range d.Classes {
		// Parity-group windows per stripe and per-group parity counts.
		isParityGroup := func(oi, j int) bool {
			return (j-oi*po%c+c)%c < po
		}
		parityCount := make([]int, c)
		for oi := 0; oi < flats; oi++ {
			for j := 0; j < c; j++ {
				if isParityGroup(oi, j) {
					parityCount[j]++
				}
			}
		}
		// Per group: flats that live on each member disk, in flat order.
		byMember := make([][][]int, c) // [group][member] -> flats
		for j := 0; j < c; j++ {
			byMember[j] = make([][]int, k)
			for fl := 0; fl < flats; fl++ {
				w := fl / (k - pi)
				p := fl % (k - pi)
				mi, count := 0, 0
				for ; mi < k; mi++ {
					if o.isInnerParity(mi, w) {
						continue
					}
					if count == p {
						break
					}
					count++
				}
				byMember[j][mi] = append(byMember[j][mi], fl)
			}
		}
		// Reserve parity flats: the s-th parity duty of group j uses a
		// flat on member s mod k (skipping exhausted members).
		parityFlat := make([][]int, c) // [group][s] -> flat
		usedFlat := make([][]bool, c)
		for j := 0; j < c; j++ {
			usedFlat[j] = make([]bool, flats)
			parityFlat[j] = make([]int, 0, parityCount[j])
			taken := make([]int, k)
			for s := 0; s < parityCount[j]; s++ {
				mi := s % k
				for taken[mi] >= len(byMember[j][mi]) {
					mi = (mi + 1) % k
				}
				fl := byMember[j][mi][taken[mi]]
				taken[mi]++
				parityFlat[j] = append(parityFlat[j], fl)
				usedFlat[j][fl] = true
			}
		}
		// Remaining flats, per group, in flat order with optional skew
		// rotation.
		dataFlat := make([][]int, c)
		for j := 0; j < c; j++ {
			rem := make([]int, 0, flats-len(parityFlat[j]))
			for fl := 0; fl < flats; fl++ {
				if !usedFlat[j][fl] {
					rem = append(rem, fl)
				}
			}
			if o.skew && len(rem) > 0 {
				rot := j * len(rem) / c
				rem = append(rem[rot:], rem[:rot]...)
			}
			dataFlat[j] = rem
		}
		// Assemble stripes: data strips first (group order), then the po
		// parity strips (group order within the parity window).
		parityTaken := make([]int, c)
		dataTaken := make([]int, c)
		for oi := 0; oi < flats; oi++ {
			stripe := Stripe{Data: c - po, Layer: LayerOuter}
			stripe.Strips = make([]Strip, 0, c)
			parityStrips := make([]Strip, 0, po)
			for j, bi := range class {
				if isParityGroup(oi, j) {
					fl := parityFlat[j][parityTaken[j]]
					parityTaken[j]++
					pst := o.flatToStrip(t, d.Blocks[bi], fl)
					parityStrips = append(parityStrips, pst)
					outerParitySet[pst] = true
					continue
				}
				fl := dataFlat[j][dataTaken[j]]
				dataTaken[j]++
				stripe.Strips = append(stripe.Strips, o.flatToStrip(t, d.Blocks[bi], fl))
			}
			stripe.Strips = append(stripe.Strips, parityStrips...)
			o.stripes = append(o.stripes, stripe)
		}
	}

	// Data strips: everything that is neither inner nor outer parity,
	// enumerated class-major then group, row, position for locality.
	for t, class := range d.Classes {
		for _, bi := range class {
			members := d.Blocks[bi]
			for fl := 0; fl < flats; fl++ {
				st := o.flatToStrip(t, members, fl)
				if !outerParitySet[st] {
					o.dataStrips = append(o.dataStrips, st)
				}
			}
		}
	}
}

// Name implements Scheme.
func (o *OIRAID) Name() string {
	s := fmt.Sprintf("oi-raid(v=%d,k=%d,r=%d", o.design.V, o.design.K, o.design.R())
	if o.innerParity != 1 || o.outerParity != 1 {
		s += fmt.Sprintf(",pi=%d,po=%d", o.innerParity, o.outerParity)
	}
	if !o.skew {
		s += ",noskew"
	}
	return s + ")"
}

// Disks implements Scheme.
func (o *OIRAID) Disks() int { return o.design.V }

// SlotsPerDisk implements Scheme.
func (o *OIRAID) SlotsPerDisk() int { return o.design.R() * o.rows }

// Stripes implements Scheme.
func (o *OIRAID) Stripes() []Stripe { return o.stripes }

// DataStrips implements Scheme.
func (o *OIRAID) DataStrips() []Strip { return o.dataStrips }

// Design returns the outer-layer block design.
func (o *OIRAID) Design() *bibd.Design { return o.design }

// Rows returns W, the inner rows per partition per cycle.
func (o *OIRAID) Rows() int { return o.rows }

// GroupsPerClass returns c = v/k.
func (o *OIRAID) GroupsPerClass() int { return o.design.V / o.design.K }

// InnerParity returns pi, the parity strips per inner stripe.
func (o *OIRAID) InnerParity() int { return o.innerParity }

// OuterParity returns po, the parity strips per outer stripe.
func (o *OIRAID) OuterParity() int { return o.outerParity }

// BandWidth implements Bander: each partition (class band) of W rows is
// kept physically contiguous, so single-failure rebuild reads one
// sequential extent per survivor.
func (o *OIRAID) BandWidth() int { return o.rows }
