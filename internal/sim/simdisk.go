package sim

import (
	"github.com/oiraid/oiraid/internal/disk"
)

// ioReq is one disk access.
type ioReq struct {
	// offset/size in bytes; offset -1 means "random small access" (always
	// charged a seek).
	offset int64
	size   int64
	write  bool
	done   func(now float64)
}

// simDisk serves requests one at a time from two FIFO queues; foreground
// requests take strict priority over rebuild traffic (the usual array
// policy: rebuild runs in the background). Sequential accesses — offset
// equal to the head position left by the previous access — skip the
// positioning cost.
type simDisk struct {
	eng    *engine
	params disk.Params
	// bgSlowdown models rebuild bandwidth throttling (1 = unthrottled):
	// after each rebuild access the disk idles for (bgSlowdown-1)× its
	// service time before starting the next rebuild access, leaving the
	// gaps free for foreground requests.
	bgSlowdown      float64
	bgBlockedUntil  float64
	bgWakeScheduled bool
	// bgEvery guarantees rebuild progress under foreground saturation: at
	// most bgEvery-1 consecutive foreground requests are served while
	// rebuild work is queued (0 = strict foreground priority).
	bgEvery  int
	fgStreak int

	fg, bg  []ioReq
	busy    bool
	headPos int64 // byte position after the last access; -1 unknown

	// Accounting.
	busySeconds float64
	readBytes   int64
	writeBytes  int64
	accesses    int
	seeks       int
}

func newSimDisk(eng *engine, p disk.Params) *simDisk {
	return &simDisk{eng: eng, params: p, headPos: -1}
}

// submit enqueues a request; foreground requests preempt queued (not
// in-flight) rebuild traffic.
func (d *simDisk) submit(r ioReq, foreground bool) {
	if foreground {
		d.fg = append(d.fg, r)
	} else {
		d.bg = append(d.bg, r)
	}
	d.maybeStart()
}

func (d *simDisk) maybeStart() {
	if d.busy {
		return
	}
	var r ioReq
	background := false
	forceBG := d.bgEvery > 0 && d.fgStreak >= d.bgEvery-1 &&
		len(d.bg) > 0 && d.eng.now >= d.bgBlockedUntil
	switch {
	case len(d.fg) > 0 && !forceBG:
		r, d.fg = d.fg[0], d.fg[1:]
		d.fgStreak++
	case len(d.bg) > 0:
		if d.eng.now < d.bgBlockedUntil {
			// Throttled: wake up when the rebuild window reopens (a
			// foreground arrival can still start the disk earlier).
			if !d.bgWakeScheduled {
				d.bgWakeScheduled = true
				d.eng.at(d.bgBlockedUntil, func() {
					d.bgWakeScheduled = false
					d.maybeStart()
				})
			}
			return
		}
		r, d.bg = d.bg[0], d.bg[1:]
		background = true
		d.fgStreak = 0
	default:
		return
	}
	d.busy = true
	sequential := r.offset >= 0 && r.offset == d.headPos
	t := d.params.AccessSeconds(r.size, sequential)
	if background && d.bgSlowdown > 1 {
		d.bgBlockedUntil = d.eng.now + t*d.bgSlowdown
	}
	if !sequential {
		d.seeks++
	}
	d.busySeconds += t
	if r.write {
		d.writeBytes += r.size
	} else {
		d.readBytes += r.size
	}
	d.accesses++
	if r.offset >= 0 {
		d.headPos = r.offset + r.size
	} else {
		d.headPos = -1
	}
	d.eng.after(t, func() {
		d.busy = false
		if r.done != nil {
			r.done(d.eng.now)
		}
		d.maybeStart()
	})
}
