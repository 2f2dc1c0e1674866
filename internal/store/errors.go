package store

import (
	"errors"
	"fmt"
)

// Sentinel errors of the data plane. Callers branch with errors.Is; the
// network server maps them onto HTTP statuses. Every error returned by
// Array and Device methods that a caller could act on wraps one of these.
var (
	// ErrTooManyFailures reports a failure pattern beyond the scheme's
	// fault tolerance: some strip has no reconstruction path.
	ErrTooManyFailures = errors.New("store: failure pattern exceeds fault tolerance")
	// ErrDiskFaulty reports an operation that needs a healthy array (or a
	// healthy disk) while a disk is failed.
	ErrDiskFaulty = errors.New("store: disk is failed")
	// ErrNoSuchDisk reports a disk id outside [0, Disks).
	ErrNoSuchDisk = errors.New("store: no such disk")
	// ErrNotFailed reports a replacement attached to a disk that is not
	// failed.
	ErrNotFailed = errors.New("store: disk is not failed")
	// ErrNoReplacement reports a rebuild of a failed disk that has no
	// replacement device attached.
	ErrNoReplacement = errors.New("store: failed disk has no replacement device")
	// ErrStripOutOfRange reports a strip index outside the device or the
	// logical data space.
	ErrStripOutOfRange = errors.New("store: strip index out of range")
	// ErrBadGeometry reports devices whose strip size or capacity does not
	// fit the array layout.
	ErrBadGeometry = errors.New("store: invalid device geometry")
	// ErrShortBuffer reports a read/write buffer whose length is not the
	// strip size.
	ErrShortBuffer = errors.New("store: buffer length does not match strip size")
	// ErrNegativeOffset reports a negative byte offset.
	ErrNegativeOffset = errors.New("store: negative offset")
	// ErrClosed reports I/O on a closed device.
	ErrClosed = errors.New("store: device closed")
	// ErrTransient reports a device error that may succeed if retried:
	// a recoverable media hiccup, a timeout, a torn write that can be
	// reissued. Nothing below the array retries them: the health monitor
	// counts one against its disk like any device error, and the HTTP
	// layer maps one onto 503 + Retry-After. Only a wire client retries,
	// and only a fault of the wire (see ErrUnreachable).
	ErrTransient = errors.New("store: transient device error")
	// ErrPermanent reports a device that has failed for good: every
	// subsequent operation will error until the disk is evicted and its
	// content rebuilt onto a replacement.
	ErrPermanent = errors.New("store: permanent device error")
	// ErrOverloaded reports a request shed by admission control: the
	// engine's admission queue was full and the wait budget elapsed. The
	// HTTP layer maps it onto 429 + Retry-After; clients should back off
	// and retry, exactly as for 503.
	ErrOverloaded = errors.New("store: overloaded, request shed by admission control")
)

// ErrUnreachable reports a device whose backing transport — a storage
// node, a network path — cannot currently be reached. It wraps
// ErrTransient, so the HTTP layer answers it 503 + Retry-After like any
// other transient fault, but the health monitor does not count it toward disk
// eviction: the disk is not sick, the path to it is. The network device
// layer decides when unreachability becomes permanent (its grace window
// elapses and it starts returning ErrPermanent instead), and only then
// does the evict→spare→rebuild heal path engage.
var ErrUnreachable = fmt.Errorf("store: device unreachable: %w", ErrTransient)

// ErrIntentConflict reports a read-modify-write that found a pending redo
// record from a *different* write overlapping its parity closure. Acking
// over such a record would let a later replay of it rewind this write's
// committed strips, so the operation refuses instead. It wraps
// ErrTransient: the conflict clears as soon as the record's own writer
// retries (replaying its record) or a quiesced recovery replays it.
var ErrIntentConflict = fmt.Errorf("store: overlapping parity closure pending: %w", ErrTransient)

// ErrStaleEpoch reports a metadata or data-plane write fenced off by the
// storage nodes because it carried a fencing epoch older than the one a
// newer coordinator acquired. It deliberately wraps neither ErrTransient
// nor ErrPermanent: the media is healthy and the path is up — the writer
// has been deposed. Retrying cannot help (the epoch only moves forward),
// and counting it as a disk fault would evict healthy disks on the old
// leader, so retry loops and the health monitor must treat it as a
// terminal verdict on the writer, not on the device.
var ErrStaleEpoch = errors.New("store: write fenced off by a newer coordinator epoch")

// ErrStripUnavailable reports a read of a strip that the current failure
// pattern leaves undecodable: the pattern as a whole is beyond tolerance
// and the peeling decoder cannot produce this particular strip from
// survivors. Other strips of the same array may still be readable — this
// is the per-strip refinement of ErrTooManyFailures, which it wraps so
// errors.Is(err, ErrTooManyFailures) matches both. The HTTP layer maps it
// onto 410 Gone.
var ErrStripUnavailable = fmt.Errorf("store: strip unavailable under current failure pattern: %w", ErrTooManyFailures)

// ErrReadOnly reports a write refused because the array is serving in a
// degraded read-only (or partial-read) mode: the failure pattern is
// beyond tolerance, or the coordinator lost its quorum lease, and
// admitting writes would either land on undecodable stripes or race a
// newer leader. Reads continue; writes must wait for promotion back to
// a writable mode. The HTTP layer maps it onto 503 with an
// X-Oiraid-Mode header naming the serving mode.
var ErrReadOnly = errors.New("store: array is read-only while degraded beyond tolerance")

// ErrIntentReplay reports a failed replay of a pending redo record — the
// array could not restore a half-committed closure to consistency because
// a live strip it must rewrite is unreachable. The record stays pending;
// the operation that needed consistency (a rebuild step, a recovery pass)
// should be retried.
var ErrIntentReplay = errors.New("store: pending closure replay failed")

// ErrCorrupt reports a strip whose content failed checksum verification —
// a latent sector error. The array's read path treats such strips as
// erased and reconstructs them from parity (read repair).
var ErrCorrupt = errors.New("store: strip checksum mismatch")

// IsTransient reports whether err may pass if the op is issued again: a
// fault of the path to a device, a device's own transient error, or a
// conflict that clears. The array keeps such an op's strip in its accounts
// (it is not gone), and the health monitor counts a device's transient
// error apart, though toward eviction like any other.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }
