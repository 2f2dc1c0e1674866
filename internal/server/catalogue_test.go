package server

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

var planes = map[string]retry.Catalogue{"server": catalogue, "netdev": netdev.Catalogue}

// TestCatalogueRoundTrip: on both planes every row encodes to its own
// status and code (no earlier row shadows it) and decodes back to an error
// that is its sentinel and none of the sentinels listed before it — which
// pins the wrapper-first orderings (ErrStripUnavailable ⊃
// ErrTooManyFailures, ErrUnreachable ⊃ ErrTransient, ErrStaleGen ⊃
// ErrStaleEpoch).
func TestCatalogueRoundTrip(t *testing.T) {
	for plane, table := range planes {
		codes := map[string]bool{}
		for i, row := range table {
			if row.Code == "" || codes[row.Code] {
				t.Errorf("%s row %d: code %q empty or repeated", plane, i, row.Code)
			}
			codes[row.Code] = true
			err := errors.New("some unclassified failure")
			if row.Err != nil {
				err = fmt.Errorf("op 7: %w", row.Err)
			}
			if got := table.Encode(err); got.Code != row.Code || got.Status != row.Status {
				t.Errorf("%s %s: encodes as %s/%d, want %d", plane, row.Code, got.Code, got.Status, row.Status)
				continue
			}
			rec := httptest.NewRecorder()
			row.Write(rec, err)
			if rec.Code != row.Status || rec.Header().Get(retry.Header) != row.Code || rec.Body.String() != err.Error()+"\n" {
				t.Errorf("%s %s: wrote %d %q %q", plane, row.Code, rec.Code, rec.Header().Get(retry.Header), rec.Body.String())
			}
			_, retryable, back := table.Decode(rec.Result())
			if retryable != row.Retryable {
				t.Errorf("%s %s: decoded retryable=%v, want %v", plane, row.Code, retryable, row.Retryable)
			}
			if row.Err != nil && !errors.Is(back, row.Err) {
				t.Errorf("%s %s: decoded %v is not its sentinel", plane, row.Code, back)
			}
			for _, earlier := range table[:i] {
				if errors.Is(back, earlier.Err) {
					t.Errorf("%s %s: decoded error is also earlier row %s", plane, row.Code, earlier.Code)
				}
			}
		}
	}
	for _, pair := range [][2]error{
		{store.ErrStripUnavailable, store.ErrTooManyFailures},
		{store.ErrUnreachable, store.ErrTransient},
		{netdev.ErrStaleGen, store.ErrStaleEpoch},
	} {
		if !errors.Is(pair[0], pair[1]) {
			t.Errorf("%v no longer wraps %v: the ordering rows above pin nothing", pair[0], pair[1])
		}
	}
}

// TestCatalogueUncodedResponse: a response without a code header maps by
// status alone — the back-off statuses retry, nothing else does, and no
// sentinel is guessed from the body.
func TestCatalogueUncodedResponse(t *testing.T) {
	for status, want := range map[int]bool{400: false, 404: false, 405: false, 429: true, 500: false, 502: true, 503: true, 504: true} {
		rec := httptest.NewRecorder()
		rec.WriteHeader(status)
		rec.WriteString(store.ErrStripOutOfRange.Error())
		_, retryable, err := catalogue.Decode(rec.Result())
		if retryable != want || err == nil || errors.Is(err, store.ErrStripOutOfRange) {
			t.Errorf("bare %d: retryable=%v err=%v", status, retryable, err)
		}
	}
}

// sentinels is every exported Err* of the packages whose errors can reach
// a wire edge. TestCatalogueCoversSentinels checks it against the source,
// so a new sentinel has to be entered here — and then either gets a
// catalogue row or a line in localOnly saying why it needs none.
var sentinels = map[string]error{
	"store.ErrTooManyFailures": store.ErrTooManyFailures, "store.ErrDiskFaulty": store.ErrDiskFaulty,
	"store.ErrNoSuchDisk": store.ErrNoSuchDisk, "store.ErrNotFailed": store.ErrNotFailed,
	"store.ErrNoReplacement": store.ErrNoReplacement, "store.ErrStripOutOfRange": store.ErrStripOutOfRange,
	"store.ErrBadGeometry": store.ErrBadGeometry, "store.ErrShortBuffer": store.ErrShortBuffer,
	"store.ErrNegativeOffset": store.ErrNegativeOffset, "store.ErrClosed": store.ErrClosed,
	"store.ErrTransient": store.ErrTransient, "store.ErrPermanent": store.ErrPermanent,
	"store.ErrOverloaded": store.ErrOverloaded, "store.ErrUnreachable": store.ErrUnreachable,
	"store.ErrIntentConflict": store.ErrIntentConflict, "store.ErrStaleEpoch": store.ErrStaleEpoch,
	"store.ErrStripUnavailable": store.ErrStripUnavailable, "store.ErrReadOnly": store.ErrReadOnly,
	"store.ErrIntentReplay": store.ErrIntentReplay, "store.ErrJournalCorrupt": store.ErrJournalCorrupt,
	"store.ErrDirNotEmpty": store.ErrDirNotEmpty, "store.ErrCorrupt": store.ErrCorrupt,
	"store.ErrNoSuperblock": store.ErrNoSuperblock, "store.ErrForeignDisk": store.ErrForeignDisk,
	"store.ErrSuperblockMismatch": store.ErrSuperblockMismatch, "store.ErrCrashed": store.ErrCrashed,

	"engine.ErrClosed": engine.ErrClosed, "engine.ErrRebuildRunning": engine.ErrRebuildRunning,

	"object.ErrNoSuchBucket": object.ErrNoSuchBucket, "object.ErrBucketExists": object.ErrBucketExists,
	"object.ErrBucketNotEmpty": object.ErrBucketNotEmpty, "object.ErrNoSuchObject": object.ErrNoSuchObject,
	"object.ErrNoSuchUpload": object.ErrNoSuchUpload, "object.ErrBadName": object.ErrBadName,
	"object.ErrNoSpace": object.ErrNoSpace, "object.ErrCorruptObject": object.ErrCorruptObject,
	"object.ErrMetaCorrupt": object.ErrMetaCorrupt, "object.ErrBadUpload": object.ErrBadUpload,

	"netdev.ErrBadFrame": netdev.ErrBadFrame, "netdev.ErrNodeNotFound": netdev.ErrNodeNotFound,
	"netdev.ErrStaleGen": netdev.ErrStaleGen, "netdev.ErrNodeLost": netdev.ErrNodeLost,
	"netdev.ErrWrongNode": netdev.ErrWrongNode, "netdev.ErrNoUpgrade": netdev.ErrNoUpgrade,
}

// localOnly are the sentinels with no row on either plane, and why.
var localOnly = map[string]string{
	"store.ErrIntentReplay":       "a failed replay keeps its record pending; the server answers a bare 500",
	"store.ErrCorrupt":            "read-repair consumes it below the engine; what survives is a bare 500",
	"store.ErrJournalCorrupt":     "mount-time only",
	"store.ErrDirNotEmpty":        "format-time only",
	"store.ErrNoSuperblock":       "mount-time only",
	"store.ErrForeignDisk":        "mount-time only",
	"store.ErrSuperblockMismatch": "mount-time only",
	"store.ErrCrashed":            "test fault injection",
	"netdev.ErrNodeLost":          "raised by the node client itself; crosses the coordinator API as the store.ErrPermanent it wraps",
	"netdev.ErrWrongNode":         "raised by the node client itself; crosses the coordinator API as the store.ErrPermanent it wraps",
}

func TestCatalogueCoversSentinels(t *testing.T) {
	for pkg, dir := range map[string]string{"store": "../store", "engine": "../engine", "object": "../object", "netdev": "../store/netdev"} {
		parsed, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range parsed[pkg].Files {
			for _, decl := range file.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.VAR {
					continue
				}
				for _, spec := range gen.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(name.Name, "Err") && sentinels[pkg+"."+name.Name] == nil {
							t.Errorf("%s.%s is not in this test's sentinel list", pkg, name.Name)
						}
					}
				}
			}
		}
	}
	for name, err := range sentinels {
		var rows int
		for _, table := range planes {
			for _, row := range table {
				if row.Err == err {
					rows++
				}
			}
		}
		if _, local := localOnly[name]; local == (rows > 0) {
			t.Errorf("%s: %d catalogue row(s), local-only=%v — want exactly one of the two", name, rows, local)
		}
	}
}
