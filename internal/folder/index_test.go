package folder

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// scanHolds reports whether the named folder holds e by a linear scan of a
// snapshot: the model the membership index must agree with.
func scanHolds(c *FileCabinet, name string, e []byte) bool {
	f := c.Snapshot(name)
	for i := 0; i < f.Len(); i++ {
		if bytes.Equal(f.RawAt(i), e) {
			return true
		}
	}
	return false
}

// indexOf returns the named folder's index and whether it has one, without
// building it.
func indexOf(c *FileCabinet, name string) (map[string]int, bool) {
	sh := c.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	idx, ok := sh.index[name]
	return idx, ok
}

// checkIndexExact asserts that an existing index holds exactly the element
// counts of its folder.
func checkIndexExact(tb testing.TB, c *FileCabinet, name string) {
	tb.Helper()
	idx, ok := indexOf(c, name)
	if !ok {
		return
	}
	want := map[string]int{}
	for _, e := range c.Snapshot(name).Strings() {
		want[e]++
	}
	if len(idx) != len(want) {
		tb.Fatalf("folder %q: index has %d keys, folder %d distinct elements", name, len(idx), len(want))
	}
	for e, n := range want {
		if idx[e] != n {
			tb.Fatalf("folder %q: index counts %q %d times, folder %d", name, e, idx[e], n)
		}
	}
}

// FuzzCabinetIndex checks the lazy membership index against a linear scan.
// The script drives Append, TestAndAppend, Dequeue, RemoveAt, Put, Delete,
// Load and Contains over three folders with a four-value alphabet, so
// duplicates are common and indexes get built partway through a history
// and then maintained. After every step, every folder is indexed exactly
// when a membership query has asked about it since it was last put,
// deleted or loaded, and every existing index agrees with the scan for
// present and absent values.
func FuzzCabinetIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 2, 0, 0, 2, 0, 0, 7, 0, 1})
	f.Add([]byte{1, 1, 2, 1, 1, 2, 0, 1, 2, 3, 1, 1, 7, 1, 2, 3, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 2, 3, 7, 2, 3, 4, 2, 1, 0, 2, 1, 7, 2, 1, 6, 0, 0, 7, 2, 0, 5, 2, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 0, 0, 0, 6, 0, 0, 0, 0, 1, 7, 0, 0, 3, 0, 2, 2, 0, 0, 7, 0, 1})

	names := []string{"A", "B", "C"}
	alphabet := [][]byte{nil, []byte("x"), []byte("y"), []byte("zz")}
	f.Fuzz(func(t *testing.T, script []byte) {
		c := NewCabinet()
		queried := map[string]bool{} // model of which folders hold an index
		for i := 0; i+2 < len(script) && i < 3*256; i += 3 {
			op, name, v := script[i]%8, names[int(script[i+1])%len(names)], script[i+2]
			val := alphabet[int(v)%len(alphabet)]
			exists := hasFolder(c, name)
			switch op {
			case 0:
				c.Append(name, val)
			case 1:
				want := !scanHolds(c, name, val)
				if got := c.TestAndAppend(name, val); got != want {
					t.Fatalf("step %d: TestAndAppend(%q, %q) = %v, want %v", i/3, name, val, got, want)
				}
				queried[name] = true
			case 2:
				c.Dequeue(name)
			case 3:
				c.RemoveAt(name, int(v)%(c.FolderLen(name)+1))
			case 4:
				c.Put(name, Of(val, alphabet[int(v/4)%len(alphabet)]))
				queried[name] = false
			case 5:
				c.Delete(name)
				queried[name] = false
			case 6:
				var buf bytes.Buffer
				if err := c.Flush(&buf); err != nil {
					t.Fatal(err)
				}
				if err := c.Load(&buf); err != nil {
					t.Fatal(err)
				}
				queried = map[string]bool{}
			case 7:
				want := scanHolds(c, name, val)
				if got := c.Contains(name, val); got != want {
					t.Fatalf("step %d: Contains(%q, %q) = %v, want %v", i/3, name, val, got, want)
				}
				queried[name] = exists
			}
			for _, n := range names {
				if _, ok := indexOf(c, n); ok != queried[n] {
					t.Fatalf("step %d (op %d): folder %q indexed=%v, want %v", i/3, op, n, ok, queried[n])
				}
				if !queried[n] {
					continue
				}
				checkIndexExact(t, c, n)
				for _, e := range alphabet {
					if got, want := c.Contains(n, e), scanHolds(c, n, e); got != want {
						t.Fatalf("step %d (op %d): Contains(%q, %q) = %v, scan says %v", i/3, op, n, e, got, want)
					}
				}
			}
		}
		// Finally query every folder, building any index not yet built.
		for _, n := range names {
			for _, e := range alphabet {
				if got, want := c.Contains(n, e), scanHolds(c, n, e); got != want {
					t.Fatalf("final: Contains(%q, %q) = %v, scan says %v", n, e, got, want)
				}
			}
			checkIndexExact(t, c, n)
		}
	})
}

// hasFolder reports whether the named folder exists, even if empty.
func hasFolder(c *FileCabinet, name string) bool {
	for _, n := range c.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// TestCabinetIndexBuildRace has several goroutines make the first Contains
// call on one pre-filled folder at once — each may find no index under the
// read lock and race to build it under the write lock — while others
// Append, Dequeue and TestAndAppend on the same folder. Afterwards the
// index must agree exactly with the folder.
func TestCabinetIndexBuildRace(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds; r++ {
		c := NewCabinet()
		for i := 0; i < 256; i++ {
			c.AppendString("Q", fmt.Sprintf("e%d", i))
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				c.ContainsString("Q", fmt.Sprintf("e%d", g*31))
			}(g)
		}
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 100; i++ {
					switch g {
					case 0:
						c.AppendString("Q", fmt.Sprintf("e%d", i%300))
					case 1:
						c.Dequeue("Q")
					case 2:
						c.TestAndAppendString("Q", fmt.Sprintf("t%d", i%10))
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if _, ok := indexOf(c, "Q"); !ok {
			t.Fatal("no index after concurrent first queries")
		}
		checkIndexExact(t, c, "Q")
		for i := 0; i < 300; i++ {
			e := []byte(fmt.Sprintf("e%d", i))
			if got, want := c.Contains("Q", e), scanHolds(c, "Q", e); got != want {
				t.Fatalf("round %d: Contains(%q) = %v, scan says %v", r, e, got, want)
			}
		}
	}
}

// queueCabinet returns a cabinet whose folder "Q" holds n distinct 64-byte
// elements and has never been queried, plus one more such element to feed
// it.
func queueCabinet(n int) (*FileCabinet, []byte) {
	c := NewCabinet()
	elem := func(i int) []byte {
		e := bytes.Repeat([]byte{'.'}, 64)
		copy(e, fmt.Sprintf("elem-%d", i))
		return e
	}
	for i := 0; i < n; i++ {
		c.Append("Q", elem(i))
	}
	return c, elem(n)
}

// TestCabinetQueueAllocs pins that a folder used only as a queue pays no
// index: Append then Dequeue allocates only the element copy, so no
// content-keyed map insert (and its string key) runs.
func TestCabinetQueueAllocs(t *testing.T) {
	c, next := queueCabinet(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Append("Q", next)
		next, _ = c.Dequeue("Q")
	})
	if allocs > 1 {
		t.Fatalf("Append+Dequeue on an unqueried folder: %.1f allocs, want <= 1", allocs)
	}
	if _, ok := indexOf(c, "Q"); ok {
		t.Fatal("queue folder built an index without a membership query")
	}
}

// BenchmarkCabinetQueue measures Append followed by Dequeue on a
// 1024-element folder of distinct 64-byte elements that has never been
// queried: the durable courier's mailbox pattern.
func BenchmarkCabinetQueue(b *testing.B) {
	c, next := queueCabinet(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Append("Q", next)
		next, _ = c.Dequeue("Q")
	}
}
