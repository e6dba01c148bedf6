package folder

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// cabinetShardCount is the number of lock stripes in a cabinet. Folders are
// assigned to shards by name hash, so agents working on different folders
// never contend on one mutex. A power of two keeps the modulo a mask.
const cabinetShardCount = 16

// NameHash is FNV-1a over a string, used to stripe folder names across
// cabinet shards (and agent names across the kernel's registry shards)
// without allocating.
func NameHash(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// cabShard is one lock stripe of a cabinet: a folder map plus the element
// indexes of the folders that have been asked about.
type cabShard struct {
	mu      sync.RWMutex
	folders map[string]*Folder
	index   map[string]map[string]int // folder name -> element content -> count
}

// FileCabinet groups site-local folders. Unlike a briefcase, a cabinet is
// bound to one site and rarely (never, in this implementation) moves, so it
// may be implemented with structures that optimize access time even when
// they would make the cabinet expensive to transfer: a cabinet keeps a
// per-folder element index keyed by element content so membership tests are
// O(1) instead of O(n), which is what flooding agents rely on when they
// check "was this site already visited?". A folder's index is built on its
// first membership query (Contains or TestAndAppend) and maintained by every
// mutation after that, so folders used only as queues, logs or mailboxes
// never pay for hashing their elements. Put and Load drop a folder's index;
// the next query rebuilds it.
//
// Cabinets are shared by every agent executing at a site and are safe for
// concurrent use. The folder space is lock-striped by name hash, so meets
// touching different folders proceed without contention. They support the
// same operations as briefcases plus indexed membership, atomic
// test-and-set, and Flush/Load for permanence.
type FileCabinet struct {
	shards [cabinetShardCount]cabShard

	// journal, when set, receives a redo record for every mutation (see
	// Journal). Held in an atomic.Value so the common in-memory cabinet
	// pays one lock-free load per mutation and nothing else.
	journal atomic.Value // Journal
}

// SetJournal attaches a mutation journal. Pass the journal before the
// cabinet serves concurrent traffic; replayed recovery mutations must be
// applied before attaching, or they would be re-journaled.
func (c *FileCabinet) SetJournal(j Journal) { c.journal.Store(j) }

// journalHook returns the attached journal, or nil.
func (c *FileCabinet) journalHook() Journal {
	j, _ := c.journal.Load().(Journal)
	return j
}

// NewCabinet returns an empty file cabinet.
func NewCabinet() *FileCabinet {
	c := &FileCabinet{}
	for i := range c.shards {
		c.shards[i].folders = make(map[string]*Folder)
		c.shards[i].index = make(map[string]map[string]int)
	}
	return c
}

// shard returns the stripe owning the named folder.
func (c *FileCabinet) shard(name string) *cabShard {
	return &c.shards[NameHash(name)&(cabinetShardCount-1)]
}

// Append adds an element to the named folder, creating the folder if needed.
func (c *FileCabinet) Append(name string, e []byte) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	stored := sh.appendLocked(name, e)
	if j := c.journalHook(); j != nil {
		// The journal gets the stored copy, not e: e must not flow into the
		// interface call, or escape analysis would heap-allocate every
		// caller's []byte(s) conversion even on journal-less cabinets.
		j.RecordAppend(name, stored)
	}
}

// AppendString adds a string element to the named folder.
func (c *FileCabinet) AppendString(name, s string) { c.Append(name, []byte(s)) }

// appendLocked stores a private copy of e and returns that copy (heap
// storage the cabinet owns for the element's lifetime — safe to hand to the
// journal without forcing e itself to escape).
func (sh *cabShard) appendLocked(name string, e []byte) []byte {
	f, ok := sh.folders[name]
	if !ok {
		f = New()
		sh.folders[name] = f
	}
	stored := clone(e)
	f.PushOwned(stored)
	if idx, ok := sh.index[name]; ok {
		idx[string(stored)]++
	}
	return stored
}

// indexLocked returns the named folder's membership index, building it on
// the folder's first membership query. It returns nil when the folder does
// not exist. The caller holds sh.mu for writing.
func (sh *cabShard) indexLocked(name string) map[string]int {
	if idx, ok := sh.index[name]; ok {
		return idx
	}
	f, ok := sh.folders[name]
	if !ok {
		return nil
	}
	idx := make(map[string]int, len(f.elems))
	for _, e := range f.elems {
		idx[string(e)]++
	}
	sh.index[name] = idx
	return idx
}

// unindexLocked drops one occurrence of e from the named folder's index, if
// the folder has one. The caller holds sh.mu for writing.
func (sh *cabShard) unindexLocked(name string, e []byte) {
	idx, ok := sh.index[name]
	if !ok {
		return
	}
	if n := idx[string(e)]; n > 1 {
		idx[string(e)] = n - 1
	} else {
		delete(idx, string(e))
	}
}

// Contains reports whether the named folder holds an element equal to e.
// The lookup uses the folder's index and costs O(1); the first query on a
// folder builds that index in O(n).
func (c *FileCabinet) Contains(name string, e []byte) bool {
	sh := c.shard(name)
	sh.mu.RLock()
	idx, indexed := sh.index[name]
	if indexed {
		found := idx[string(e)] > 0
		sh.mu.RUnlock()
		return found
	}
	_, exists := sh.folders[name]
	sh.mu.RUnlock()
	if !exists {
		return false
	}
	// First query on this folder: build its index under the write lock.
	// indexLocked re-checks, since another query may have built the index,
	// or the folder may have been deleted, while no lock was held.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.indexLocked(name)[string(e)] > 0
}

// ContainsString reports whether the named folder holds the string s.
func (c *FileCabinet) ContainsString(name, s string) bool {
	return c.Contains(name, []byte(s))
}

// TestAndAppend atomically checks membership and appends if absent.
// It returns true when the element was newly added, false when it was
// already present. This is the primitive the paper's flooding example
// needs: "record its visit in a site-local folder" must be atomic with
// checking whether the site was already visited.
func (c *FileCabinet) TestAndAppend(name string, e []byte) bool {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx := sh.indexLocked(name)
	if idx == nil {
		// appendLocked creates the folder below; it starts indexed.
		sh.index[name] = make(map[string]int)
	} else if idx[string(e)] > 0 {
		return false
	}
	stored := sh.appendLocked(name, e)
	if j := c.journalHook(); j != nil {
		j.RecordAppend(name, stored)
	}
	return true
}

// TestAndAppendString is TestAndAppend for string elements.
func (c *FileCabinet) TestAndAppendString(name, s string) bool {
	return c.TestAndAppend(name, []byte(s))
}

// Snapshot returns a copy of the named folder, or an empty folder if it does
// not exist. Agents receive copies so that cabinet internals never escape
// the lock; the copy is O(1) copy-on-write, so snapshotting a large folder
// costs nothing until someone mutates.
func (c *FileCabinet) Snapshot(name string) *Folder {
	sh := c.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.folders[name]
	if !ok {
		return New()
	}
	return f.Clone()
}

// Put replaces the named folder with a copy of f (copy-on-write). The
// folder's index, if any, is dropped; the next membership query rebuilds it.
func (c *FileCabinet) Put(name string, f *Folder) {
	cp := f.Clone()
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.folders[name] = cp
	delete(sh.index, name)
	if j := c.journalHook(); j != nil {
		j.RecordPut(name, cp)
	}
}

// Dequeue removes and returns the first element of the named folder.
// It returns ErrNoFolder if the folder is absent and ErrEmpty if empty.
// Dequeue is how queued meeting requests are drained by brokers.
func (c *FileCabinet) Dequeue(name string) ([]byte, error) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.folders[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFolder, name)
	}
	e, err := f.Dequeue()
	if err != nil {
		return nil, err
	}
	sh.unindexLocked(name, e)
	if j := c.journalHook(); j != nil {
		j.RecordDequeue(name)
	}
	return e, nil
}

// RemoveAt removes element i of the named folder in place, under the shard
// lock, maintaining the membership index. It exists because the tempting
// alternative — Snapshot, Folder.Remove, Put — is a read-modify-write that
// silently discards any element appended between the snapshot and the put
// (the mailbox delete bug). It returns ErrNoFolder if the folder is absent
// and ErrBadIndex if i is out of range.
func (c *FileCabinet) RemoveAt(name string, i int) error {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f, ok := sh.folders[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoFolder, name)
	}
	e := f.RawAt(i) // element bytes are immutable, so e outlives the removal
	if err := f.Remove(i); err != nil {
		return err
	}
	sh.unindexLocked(name, e)
	if j := c.journalHook(); j != nil {
		// Journaled as a whole-folder put: replaying the post-removal image
		// reproduces the removal without a dedicated record type.
		j.RecordPut(name, f)
	}
	return nil
}

// Delete removes the named folder entirely.
func (c *FileCabinet) Delete(name string) {
	sh := c.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.folders, name)
	delete(sh.index, name)
	if j := c.journalHook(); j != nil {
		j.RecordDelete(name)
	}
}

// Len reports the number of folders in the cabinet.
func (c *FileCabinet) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.folders)
		sh.mu.RUnlock()
	}
	return n
}

// FolderLen reports the number of elements in the named folder (0 if absent).
func (c *FileCabinet) FolderLen(name string) int {
	sh := c.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	f, ok := sh.folders[name]
	if !ok {
		return 0
	}
	return f.Len()
}

// Names returns the folder names in sorted order.
func (c *FileCabinet) Names() []string {
	var names []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for name := range sh.folders {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// lockAll write- or read-locks every shard in index order (a fixed order, so
// two concurrent whole-cabinet operations cannot deadlock) and returns the
// matching unlock.
func (c *FileCabinet) lockAll(write bool) (unlock func()) {
	for i := range c.shards {
		if write {
			c.shards[i].mu.Lock()
		} else {
			c.shards[i].mu.RLock()
		}
	}
	return func() {
		for i := range c.shards {
			if write {
				c.shards[i].mu.Unlock()
			} else {
				c.shards[i].mu.RUnlock()
			}
		}
	}
}

// SnapshotAll returns a point-in-time briefcase copy of every folder. All
// shards are held read-locked together, so the image is consistent across
// folders; the copies are O(1) copy-on-write. If locked is non-nil it is
// invoked while the locks are still held — no mutation (and therefore no
// journal record) can be concurrent with the callback, which is how the
// write-ahead log rotates its segment at the exact point the snapshot
// represents.
func (c *FileCabinet) SnapshotAll(locked func()) *Briefcase {
	b := NewBriefcase()
	unlock := c.lockAll(false)
	for i := range c.shards {
		for name, f := range c.shards[i].folders {
			b.Put(name, f.Clone())
		}
	}
	if locked != nil {
		locked()
	}
	unlock()
	return b
}

// Flush writes the entire cabinet to w in the wire format, providing the
// paper's "file cabinets can be flushed to disk when permanence is
// required". All shards are held read-locked together, so the flushed image
// is a consistent point-in-time snapshot.
func (c *FileCabinet) Flush(w io.Writer) error {
	_, err := w.Write(EncodeBriefcase(c.SnapshotAll(nil)))
	return err
}

// Load replaces the cabinet contents with folders read from r.
func (c *FileCabinet) Load(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	b, err := DecodeBriefcase(data)
	if err != nil {
		return err
	}
	unlock := c.lockAll(true)
	defer unlock()
	for i := range c.shards {
		c.shards[i].folders = make(map[string]*Folder)
		c.shards[i].index = make(map[string]map[string]int)
	}
	for _, name := range b.Names() {
		f, _ := b.Folder(name)
		c.shard(name).folders[name] = f.Clone()
	}
	if j := c.journalHook(); j != nil {
		// Recorded while every shard is still write-locked, so the load's
		// position in the journal is consistent with all per-shard records.
		j.RecordLoad(data)
	}
	return nil
}
