package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
)

// stamps matches the wall-clock times the object verbs print: ls's
// "2006-01-02 15:04:05" and stat's RFC 3339 JSON.
var stamps = regexp.MustCompile(`\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(\.\d+)?(Z|[+-]\d\d:\d\d)?`)

// TestObjectVerbsLocalAndRemote runs mb → put → ls → stat → get → rm through
// objectCmd over -dir (each verb mounts and seals the array, as the CLI
// does) and over -remote against an in-process oiraidd of the same
// geometry. Both print the same, times aside.
func TestObjectVerbsLocalAndRemote(t *testing.T) {
	const cycles, strip = 4, 512
	dir := filepath.Join(t.TempDir(), "arr")
	if err := create(dir, 9, cycles, strip); err != nil {
		t.Fatal(err)
	}
	local := func(cmd, bucket, key, prefix string, maxKeys int, in []byte) (string, error) {
		var out bytes.Buffer
		err := localObjectCmd(context.Background(), dir, cmd, bucket, key, prefix, maxKeys, bytes.NewReader(in), &out)
		return out.String(), err
	}

	g, err := oiraid.NewGeometry(9)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := oiraid.NewMemArray(g, cycles, strip)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(arr, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := object.New(eng, object.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng, server.Options{Objects: objs}).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	plane := remotePlane{server.NewClient(ts.URL)}
	remote := func(cmd, bucket, key, prefix string, maxKeys int, in []byte) (string, error) {
		var out bytes.Buffer
		err := objectCmd(context.Background(), plane, cmd, bucket, key, prefix, maxKeys, bytes.NewReader(in), &out)
		return out.String(), err
	}

	cat, dog := make([]byte, 3000), make([]byte, 700)
	rng := rand.New(rand.NewSource(4))
	rng.Read(cat)
	rng.Read(dog)
	steps := []struct {
		cmd, bucket, key, prefix string
		maxKeys                  int
		in, want                 []byte // stdin; for get, the object
	}{
		{cmd: "mb", bucket: "photos"},
		{cmd: "put", bucket: "photos", key: "cat.bin", in: cat},
		{cmd: "put", bucket: "photos", key: "dog.bin", in: dog},
		{cmd: "ls"},
		{cmd: "ls", bucket: "photos"},
		{cmd: "ls", bucket: "photos", maxKeys: 1}, // two pages
		{cmd: "ls", bucket: "photos", prefix: "ca"},
		{cmd: "stat", bucket: "photos", key: "cat.bin"},
		{cmd: "get", bucket: "photos", key: "cat.bin", want: cat},
		{cmd: "get", bucket: "photos", key: "dog.bin", want: dog},
		{cmd: "rm", bucket: "photos", key: "cat.bin"},
		{cmd: "ls", bucket: "photos"},
		{cmd: "rm", bucket: "photos", key: "dog.bin"},
		{cmd: "rm", bucket: "photos"},
		{cmd: "ls"},
	}
	var outs []string
	for _, run := range []func(cmd, bucket, key, prefix string, maxKeys int, in []byte) (string, error){local, remote} {
		var all string
		for _, s := range steps {
			out, err := run(s.cmd, s.bucket, s.key, s.prefix, s.maxKeys, s.in)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", s.cmd, s.bucket, s.key, err)
			}
			if s.cmd == "get" {
				out = fmt.Sprintf("%d bytes, as put: %v\n", len(out), out == string(s.want))
			}
			all += "$ " + s.cmd + " " + s.bucket + "/" + s.key + "\n" + out
		}
		outs = append(outs, all)
	}
	for i, want := range []string{
		"created bucket photos\n",
		"photos",
		"     3000  TIME  cat.bin\n",
		`"etag"`,
		"3000 bytes, as put: true\n",
		"700 bytes, as put: true\n",
		"removed photos/cat.bin\n",
		"removed bucket photos\n",
	} {
		if !strings.Contains(stamps.ReplaceAllString(outs[0], "TIME"), want) {
			t.Errorf("local output lacks check %d (%q):\n%s", i, want, outs[0])
		}
	}
	if strings.Contains(outs[1], "0001-01-01") {
		t.Errorf("-remote printed a zero time:\n%s", outs[1])
	}
	if l, r := stamps.ReplaceAllString(outs[0], "TIME"), stamps.ReplaceAllString(outs[1], "TIME"); l != r {
		t.Fatalf("-dir and -remote differ:\n--- -dir\n%s\n--- -remote\n%s", l, r)
	}
}
