package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

func testBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"schema":"test","seq":%d,"payload":"%032d"}`, i, i))
}

// Layout-sensitive tests run as a "full" subtest, naming the store's one
// index layout: every live key is held in the in-memory index.
func testKey(i int) string { return fmt.Sprintf("key-%04d-%032d", i, i*i) }

func TestRoundTrip(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		for i := 0; i < 50; i++ {
			if err := st.Put(testKey(i), testBody(i)); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		if st.Len() != 50 {
			t.Fatalf("Len = %d, want 50", st.Len())
		}
		for i := 0; i < 50; i++ {
			body, ok, err := st.Get(testKey(i))
			if err != nil || !ok {
				t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
			}
			if !bytes.Equal(body, testBody(i)) {
				t.Fatalf("Get(%d): body mismatch", i)
			}
		}
		if _, ok, err := st.Get("never-stored"); ok || err != nil {
			t.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
	})
}

func TestDuplicatePutSkipped(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		body := testBody(1)
		for i := 0; i < 5; i++ {
			if err := st.Put("dup", body); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		stats := st.Stats()
		if stats.Puts != 1 || stats.DupPuts != 4 || stats.Keys != 1 {
			t.Fatalf("stats = %+v, want 1 put, 4 dups, 1 key", stats)
		}
	})
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxSegmentBytes: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := st.Stats().Segments; got < 2 {
		t.Fatalf("Segments = %d, want rotation to have happened", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen across the rotated segments: everything must still be there.
	st, err = Open(dir, Options{MaxSegmentBytes: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if st.Len() != 20 {
		t.Fatalf("Len after reopen = %d, want 20", st.Len())
	}
	for i := 0; i < 20; i++ {
		body, ok, err := st.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(body, testBody(i)) {
			t.Fatalf("Get(%d) after reopen: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestBloomNegativesSkipDisk(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	before := st.Stats().DiskReads
	misses := 200
	for i := 0; i < misses; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("absent-%d", i)); ok || err != nil {
			t.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
	}
	stats := st.Stats()
	// The filter must shed nearly all absent-key lookups without disk I/O;
	// with 10 keys in 2^17 bits the false-positive rate is ~0, but allow a
	// little slack rather than pin an exact hash outcome.
	if stats.BloomNegatives < int64(misses)-5 {
		t.Errorf("BloomNegatives = %d, want >= %d", stats.BloomNegatives, misses-5)
	}
	if stats.DiskReads-before > 5 {
		t.Errorf("absent-key lookups cost %d disk reads, want ~0", stats.DiskReads-before)
	}
}

func TestTornTailTruncated(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < 8; i++ {
			if err := st.Put(testKey(i), testBody(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		const garbage = 37
		if err := InjectTornTail(dir, garbage); err != nil {
			t.Fatalf("InjectTornTail: %v", err)
		}
		st, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st.Close()
		if got := st.Stats().RecoveredBytes; got != garbage {
			t.Fatalf("RecoveredBytes = %d, want %d", got, garbage)
		}
		if st.Len() != 8 {
			t.Fatalf("Len = %d, want 8 surviving keys", st.Len())
		}
		for i := 0; i < 8; i++ {
			body, ok, err := st.Get(testKey(i))
			if err != nil || !ok || !bytes.Equal(body, testBody(i)) {
				t.Fatalf("Get(%d) after torn-tail recovery: ok=%v err=%v", i, ok, err)
			}
		}
		// The store must stay appendable after recovery: a put lands in
		// the truncated segment and survives another cycle.
		if err := st.Put(testKey(99), testBody(99)); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
	})
}

func TestEmptyKeyRejected(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := st.Put("", []byte("x")); err == nil {
		t.Fatal("Put(empty key): want error")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := st.Get("k"); err == nil {
		t.Error("Get after Close: want error")
	}
	if err := st.Put("k", []byte("v")); err == nil {
		t.Error("Put after Close: want error")
	}
	if err := st.Sync(); err == nil {
		t.Error("Sync after Close: want error")
	}
}

// TestRecoveryProperty is the seeded crash-point sweep (ISSUE 9 satellite):
// write a known record sequence, then simulate a crash by cutting the
// segment at a seeded byte offset — mid-record, mid-header, exactly on a
// record boundary — or by appending garbage past a clean sync. Open must
// always succeed, recover the longest valid prefix, and serve every
// surviving key byte-identical; keys past the cut must read as clean
// misses, never corrupt bodies.
func TestRecoveryProperty(t *testing.T) {
	const records = 24
	// Precompute each record's end offset in the single segment so the
	// expected survivor set at any cut point is exact.
	ends := make([]int64, records)
	var off int64
	for i := 0; i < records; i++ {
		off += recordLen(len(testKey(i)), len(testBody(i)))
		ends[i] = off
	}
	total := off

	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		t.Run(fmt.Sprintf("full/seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			for trial := 0; trial < 20; trial++ {
				dir := t.TempDir()
				st, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				for i := 0; i < records; i++ {
					if err := st.Put(testKey(i), testBody(i)); err != nil {
						t.Fatalf("Put: %v", err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				seg := filepath.Join(dir, segName(0))
				var cut int64
				switch mode := r.Intn(4); mode {
				case 0: // anywhere, usually mid-record
					cut = int64(r.Intn(int(total)))
				case 1: // mid-header of a seeded record
					cut = ends[r.Intn(records-1)] + int64(r.Intn(recordHeaderLen))
				case 2: // exactly on a record boundary
					cut = ends[r.Intn(records)]
				case 3: // clean file, garbage appended after the sync
					cut = total
				}
				if cut < total {
					if err := os.Truncate(seg, cut); err != nil {
						t.Fatalf("truncate: %v", err)
					}
				} else if err := InjectTornTail(dir, 1+r.Intn(64)); err != nil {
					t.Fatalf("InjectTornTail: %v", err)
				}

				st, err = Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen after cut at %d: %v", cut, err)
				}
				survivors := 0
				for i := 0; i < records; i++ {
					wantOK := ends[i] <= cut
					body, ok, err := st.Get(testKey(i))
					if err != nil {
						t.Fatalf("Get(%d) after cut at %d: %v", i, cut, err)
					}
					if ok != wantOK {
						t.Fatalf("Get(%d) after cut at %d: ok=%v, want %v", i, cut, ok, wantOK)
					}
					if ok {
						survivors++
						if !bytes.Equal(body, testBody(i)) {
							t.Fatalf("Get(%d) after cut at %d: body not byte-identical", i, cut)
						}
					}
				}
				if st.Len() != survivors {
					t.Fatalf("Len = %d, want %d survivors at cut %d", st.Len(), survivors, cut)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("Close after recovery: %v", err)
				}
			}
		})
	}
}
