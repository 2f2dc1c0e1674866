package object

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// listAll paginates a bucket to exhaustion with the given page size and
// returns every key seen, page by page.
func listAll(t *testing.T, s *Store, bucket, prefix string, pageSize int) []string {
	t.Helper()
	var keys []string
	after := ""
	for {
		page, err := s.ListObjects(context.Background(), bucket, prefix, after, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Objects) > pageSize {
			t.Fatalf("page of %d objects, asked for %d", len(page.Objects), pageSize)
		}
		for _, o := range page.Objects {
			keys = append(keys, o.Key)
		}
		if !page.Truncated {
			return keys
		}
		if page.NextAfter == "" {
			t.Fatal("truncated page without a cursor")
		}
		after = page.NextAfter
	}
}

// TestListPagination: pages partition the key space — every key appears
// exactly once, in order, whatever the page size.
func TestListPagination(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "pages"); err != nil {
		t.Fatal(err)
	}
	const n = 57
	for i := 0; i < n; i++ {
		mustPut(t, s, "pages", fmt.Sprintf("doc/%04d", i), []byte{byte(i)})
	}
	for _, pageSize := range []int{1, 7, 57, 100} {
		keys := listAll(t, s, "pages", "doc/", pageSize)
		if len(keys) != n {
			t.Fatalf("page size %d: %d keys, want %d", pageSize, len(keys), n)
		}
		for i, k := range keys {
			if want := fmt.Sprintf("doc/%04d", i); k != want {
				t.Fatalf("page size %d: key[%d] = %q, want %q", pageSize, i, k, want)
			}
		}
	}
	// Prefix filter excludes everything else.
	mustPut(t, s, "pages", "other/x", []byte("x"))
	if keys := listAll(t, s, "pages", "doc/", 10); len(keys) != n {
		t.Fatalf("prefix list leaked %d keys", len(keys)-n)
	}
}

// TestListPaginationUnderConcurrentPuts is the LIST property test:
// while writers PUT fresh objects concurrently, a paginated walk must
// return every pre-existing object exactly once and never duplicate
// any key. (Objects created during the walk may or may not appear —
// that is the usual LIST contract — but nothing may be lost or seen
// twice.)
func TestListPaginationUnderConcurrentPuts(t *testing.T) {
	s, _ := newTestStore(t, 4)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "pages"); err != nil {
		t.Fatal(err)
	}
	const pre = 120
	for i := 0; i < pre; i++ {
		mustPut(t, s, "pages", fmt.Sprintf("pre/%04d", i), []byte{1})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A bounded key space (later laps overwrite): the array
				// holds 576 strips and nothing else paces the writers.
				key := fmt.Sprintf("new/%d-%04d", w, i%64)
				data := bytes.Repeat([]byte{byte(w)}, 64)
				if _, err := s.PutObject(ctx, "pages", key, bytes.NewReader(data), 64, nil); err != nil {
					t.Errorf("concurrent put %s: %v", key, err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		seen := make(map[string]int)
		for _, k := range listAll(t, s, "pages", "", 13) {
			seen[k]++
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("round %d: key %q appeared %d times", round, k, c)
			}
		}
		for i := 0; i < pre; i++ {
			if k := fmt.Sprintf("pre/%04d", i); seen[k] != 1 {
				t.Fatalf("round %d: pre-existing key %q missing from walk", round, k)
			}
		}
	}
	close(stop)
	wg.Wait()
	if rep := s.Fsck(); !rep.Clean {
		t.Fatalf("fsck after concurrent puts: %+v", rep)
	}
}
