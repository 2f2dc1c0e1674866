package sim

import (
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/stats"
	"github.com/oiraid/oiraid/internal/workload"
)

// startForeground begins open-loop request injection at t=0.
func (s *session) startForeground() {
	s.fg = &ForegroundResult{
		Latency:         &stats.Summary{},
		DegradedLatency: &stats.Summary{},
	}
	arr, err := workload.NewPoisson(s.cfg.Foreground.RatePerSec, s.cfg.Seed+1)
	if err != nil {
		// Config was validated; an error here is a programming bug.
		panic(err)
	}
	s.arrivals = arr
	s.eng.at(arr.NextGap(), s.onArrival)
}

// onArrival serves one foreground request and schedules the next arrival.
func (s *session) onArrival() {
	if s.arrivalsStopped {
		return
	}
	if s.arrivalDeadline > 0 && s.eng.now >= s.arrivalDeadline {
		return
	}
	s.eng.after(s.arrivals.NextGap(), s.onArrival)

	dataStrips := s.a.Scheme().DataStrips()
	perCycle := int64(len(dataStrips))
	total := perCycle * int64(s.cycles)
	acc := s.cfg.Foreground.Gen.Next()
	idx := acc.Index % total
	if idx < 0 {
		idx += total
	}
	cycle := int(idx / perCycle)
	strip := dataStrips[idx%perCycle]
	if acc.Write {
		s.serveWrite(cycle, strip)
	} else {
		s.serveRead(cycle, strip)
	}
}

// serveRead issues a foreground read; reads of strips on failed disks are
// reconstructed from stripe sources (degraded reads).
func (s *session) serveRead(cycle int, strip layout.Strip) {
	start := s.eng.now
	if !s.failed[strip.Disk] {
		s.disks[strip.Disk].submit(ioReq{
			offset: s.byteOffset(cycle, strip.Slot),
			size:   s.cfg.Foreground.IOBytes,
			done: func(now float64) {
				s.fg.Served++
				s.fg.Latency.Add(now - start)
			},
		}, true)
		return
	}
	alive := func(d int) bool { return !s.failed[d] }
	info, ok := s.a.DecodePath(strip, alive)
	if !ok {
		s.fg.Dropped++
		return
	}
	// MDS decoding needs Data-many of the live members: take the first.
	remaining := s.a.Scheme().Stripes()[info.Stripe].Data
	need := remaining
	for pos, src := range info.Members {
		if !info.Present[pos] || need == 0 {
			continue
		}
		need--
		s.disks[src.Disk].submit(ioReq{
			offset: s.byteOffset(cycle, src.Slot),
			size:   s.cfg.Foreground.IOBytes,
			done: func(now float64) {
				remaining--
				if remaining == 0 {
					s.fg.Served++
					s.fg.DegradedLatency.Add(now - start)
				}
			},
		}, true)
	}
}

// serveWrite issues a small write: read-modify-write on the data strip and
// every parity strip it dirties (2 I/Os per strip). Strips on failed disks
// are skipped — their content is reconstructed by the rebuild.
func (s *session) serveWrite(cycle int, strip layout.Strip) {
	start := s.eng.now
	remaining := 0
	degraded := false
	complete := func(now float64) {
		remaining--
		if remaining == 0 {
			s.fg.Served++
			if degraded {
				s.fg.DegradedLatency.Add(now - start)
			} else {
				s.fg.Latency.Add(now - start)
			}
		}
	}
	type req struct {
		disk   int
		offset int64
		write  bool
	}
	var reqs []req
	for _, tgt := range s.a.UpdateStrips(strip) {
		if s.failed[tgt.Disk] {
			degraded = true
			continue
		}
		off := s.byteOffset(cycle, tgt.Slot)
		reqs = append(reqs, req{tgt.Disk, off, false}, req{tgt.Disk, off, true})
	}
	if len(reqs) == 0 {
		s.fg.Dropped++
		return
	}
	remaining = len(reqs)
	for _, r := range reqs {
		s.disks[r.disk].submit(ioReq{
			offset: r.offset,
			size:   s.cfg.Foreground.IOBytes,
			write:  r.write,
			done:   complete,
		}, true)
	}
}
