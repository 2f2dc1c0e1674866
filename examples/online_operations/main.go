// Online operations: the data-plane features a production deployment
// leans on, demonstrated end to end — checksummed read repair, online
// incremental rebuild with foreground I/O, write-hole recovery by journal
// replay, and exposure reporting while degraded.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/store"
)

func main() {
	g, err := oiraid.NewGeometry(9)
	if err != nil {
		log.Fatal(err)
	}
	const stripBytes = 1024
	const cycles = 8
	strips := cycles * int64(g.Analyzer().SlotsPerDisk())

	// A formatted array over memory media: FormatArray wraps every device
	// with journal-backed checksums (silent corruption becomes a detectable
	// erasure) and attaches the metadata journal that redo-logs every
	// parity commit. The fault injectors tear a write in step 4.
	devs := make([]oiraid.Device, g.Disks())
	inner := make([]oiraid.Device, g.Disks())
	faults := make([]*oiraid.FaultInjector, g.Disks())
	sbs := make([]oiraid.Blob, g.Disks())
	for i := range devs {
		mem, err := oiraid.NewMemDevice(strips, stripBytes)
		if err != nil {
			log.Fatal(err)
		}
		inner[i] = mem
		faults[i] = oiraid.NewFaultDevice(mem, oiraid.FaultConfig{})
		devs[i] = faults[i]
		sbs[i] = oiraid.NewMemBlob()
	}
	mnt, err := oiraid.FormatArray(g, devs, sbs, oiraid.NewMemBlob(), oiraid.NewMemBlob())
	if err != nil {
		log.Fatal(err)
	}
	arr := mnt.Array

	content := make([]byte, arr.Capacity())
	rand.New(rand.NewSource(1)).Read(content)
	if _, err := arr.WriteAt(content, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("array: %s\n", g)

	// 1. Read repair: corrupt a sector behind the checksum's back.
	raw := make([]byte, stripBytes)
	if err := inner[2].ReadStrip(5, raw); err != nil {
		log.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := inner[2].WriteStrip(5, raw); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read repair: %d latent sector error(s) healed in place; content intact: %v\n",
		arr.Stats().ReadRepairs, bytes.Equal(buf, content))

	// 2. Exposure while degraded.
	if err := arr.FailDisk(4); err != nil {
		log.Fatal(err)
	}
	exp := g.Exposure(arr.FailedDisks(), 3)
	fmt.Printf("disk 4 failed: recoverable=%v, guaranteed slack for %d more arbitrary failure(s)\n",
		exp.Recoverable, exp.Slack)

	// 3. Online incremental rebuild, a layout cycle at a time, with writes in flight.
	spare, err := oiraid.NewMemDevice(strips, stripBytes)
	if err != nil {
		log.Fatal(err)
	}
	faults[4] = oiraid.NewFaultDevice(spare, oiraid.FaultConfig{})
	if err := arr.ReplaceDisk(4, faults[4]); err != nil {
		log.Fatal(err)
	}
	steps := 0
	for {
		cycle, _ := arr.RebuildProgress()
		done, err := arr.RebuildCycle(cycle)
		if err != nil {
			log.Fatal(err)
		}
		if done {
			break
		}
		rebuilt, total := arr.RebuildProgress()
		// Foreground write lands while the rebuild is mid-flight.
		patch := []byte(fmt.Sprintf("online write during step %d", steps))
		off := int64(steps) * 4096
		if _, err := arr.WriteAt(patch, off); err != nil {
			log.Fatal(err)
		}
		copy(content[off:], patch)
		fmt.Printf("rebuild progress %d/%d cycles (foreground writes continuing)\n", rebuilt, total)
		steps++
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		log.Fatalf("scrub after online rebuild: bad=%d err=%v", bad, err)
	}
	if _, err := arr.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online rebuild complete: content intact: %v\n", bytes.Equal(buf, content))

	// 4. Write-hole recovery: a device error tears a commit partway through
	// its parity closure, leaving the stripes inconsistent. The journal
	// made the closure's full new content durable before the first device
	// write, so replaying that redo record completes the write — no parity
	// recompute, and equally sound with a disk failed.
	st, cycle := arr.LocateDataStrip(0)
	faults[st.Disk].Inject(cycle*int64(g.Analyzer().SlotsPerDisk())+int64(st.Slot), store.FaultTorn)
	fresh := bytes.Repeat([]byte{0xAB}, stripBytes)
	_, werr := arr.WriteAt(fresh, 0)
	n, err := arr.RecoverIntent()
	if err != nil {
		log.Fatal(err)
	}
	bad, err := arr.Scrub()
	if err != nil {
		log.Fatal(err)
	}
	got := make([]byte, stripBytes)
	if _, err := arr.ReadAt(got, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("write hole: commit torn (%v); replay re-synced %d cycle(s), %d inconsistent stripe(s) after, write completed: %v\n",
		werr, n, bad, bytes.Equal(got, fresh))
}
