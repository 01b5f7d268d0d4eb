package mscopedb

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestScanFromEqualsScanSliced: ScanFrom(r) delivers exactly the rows of a
// full Scan from r on, for every r across three sealed segments of 300
// rows (not a multiple of restartEvery, so a segment's last restart point
// covers a short run) and the tail, and for one past the end.
func TestScanFromEqualsScanSliced(t *testing.T) {
	_, spill, _ := spilledEvents(t, 1000, 300, 70)
	if spill.Segments() != 3 || spill.SealedRows() != 900 {
		t.Fatalf("want 3 segments of 300 rows and a tail, have %d segments, %d sealed", spill.Segments(), spill.SealedRows())
	}
	cols := []string{"tier", "ts", "reqid", "load", "ua"}
	full := scanAll(t, spill, cols)
	for r := 0; r <= spill.Rows()+1; r++ {
		got := make([]colData, len(cols))
		err := spill.ScanFrom(r, cols, func(ch *Chunk) error {
			for i := range cols {
				appendCol(&got[i], &ch.data[i], ch.cols[i].Type, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ScanFrom(%d): %v", r, err)
		}
		for i, name := range cols {
			typ := spill.cols[spill.ColIndex(name)].Type
			want := full[i].slice(typ, min(r, spill.Rows()), spill.Rows())
			var gotCol, wantCol colData // nil and empty alike
			appendCol(&gotCol, &got[i], typ, nil)
			appendCol(&wantCol, &want, typ, nil)
			if !reflect.DeepEqual(gotCol, wantCol) {
				t.Fatalf("ScanFrom(%d) column %s differs from Scan sliced at %d", r, cols[i], r)
			}
		}
	}
}

// TestRestartPointsCountTowardTheCap: the restart points subset reads
// build are kept beside the lookup indexes under the same cap and counted
// in IndexStats; with a cap a few entries wide they are evicted, least
// recently used first, and every answer still equals the in-memory one.
func TestRestartPointsCountTowardTheCap(t *testing.T) {
	mem, spill, sdb := spilledEvents(t, 3000, 500, 40)
	cols := []string{"ua", "reqid", "tier", "ts", "load"}
	lookup := func(id string) {
		t.Helper()
		want, err := mem.Lookup("reqid", []string{id}, cols)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spill.Lookup("reqid", []string{id}, cols)
		if err != nil {
			t.Fatal(err)
		}
		if want.rows != got.rows || !reflect.DeepEqual(want.data, got.data) {
			t.Fatalf("lookup of %s differs from memory", id)
		}
	}
	lookup("req-0003")
	c := &sdb.store.lookups
	sum := func() (index, restart, total int64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for k, e := range c.byKey {
			if k.restarts {
				restart += e.size()
			} else {
				index += e.size()
			}
		}
		return index, restart, c.bytes
	}
	index, restart, total := sum()
	if restart == 0 || index+restart != total {
		t.Fatalf("index %d + restart points %d bytes, the cache counts %d", index, restart, total)
	}
	if bytes, _ := sdb.IndexStats(); bytes != total {
		t.Fatalf("IndexStats reports %d bytes, the cache holds %d", bytes, total)
	}
	// One segment's reqid index is 8 B a row; a cap of just over one lets
	// restart points in only beside it. The cache starts empty under it.
	c.mu.Lock()
	c.cap, c.byKey, c.bytes = 500*8+512, nil, 0
	c.mu.Unlock()
	for i := 0; i < 40; i++ {
		lookup(fmt.Sprintf("req-%04d", i))
		if _, _, total := sum(); total > c.cap {
			t.Fatalf("cache holds %d bytes, cap %d", total, c.cap)
		}
	}
	if _, evictions := sdb.IndexStats(); evictions == 0 {
		t.Fatal("nothing was evicted under a one-index cap")
	}
	if err := sdb.Compact(); err != nil {
		t.Fatal(err)
	}
	if bytes, _ := sdb.IndexStats(); bytes != 0 {
		t.Fatalf("%d bytes survive the segments they were built from", bytes)
	}
}

// TestFreeListStaysBounded: however many buffers come back, and from how
// many goroutines, the free list never keeps more than its GOMAXPROCS
// slots, so never more bytes than that many of the largest buffer it was
// handed.
func TestFreeListStaysBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var l bufList
	const largest = 40<<17 + 40<<17/8 // the buffer get makes for 5 MiB
	check := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		sum := int64(0)
		for _, b := range l.free {
			sum += int64(cap(*b))
		}
		if len(l.free) > 3 || sum > 3*largest {
			t.Errorf("free list keeps %d buffers, %d bytes; bounds 3 and %d", len(l.free), sum, 3*largest)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []*[]byte
			for i := 0; i < 200; i++ {
				size := int64(1+(i*7919+g*104729)%40) << 17 // 128 KiB to 5 MiB
				held = append(held, l.get(size))
				if len(held) > 8 || i%5 == 0 {
					for _, b := range held {
						l.put(b)
						check()
					}
					held = held[:0]
				}
			}
			for _, b := range held {
				l.put(b)
			}
		}(g)
	}
	wg.Wait()
	check()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) != 3 {
		t.Fatalf("free list keeps %d buffers once everything came back, want its 3 slots full", len(l.free))
	}
}
