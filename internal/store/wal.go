package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/folder"
)

// ErrWALClosed is returned by Sync once Close has run: a closed WAL
// silently refuses new records, so claiming durability for anything
// recorded afterwards would be a lie. Shut the site's traffic down before
// closing its WAL (tacomad does: endpoint close, quiesce, then Close).
var ErrWALClosed = errors.New("store: wal closed")

// Options tunes a WAL.
type Options struct {
	// SyncEveryRecord makes every recorded mutation write + fdatasync
	// inline before the mutation returns — the naive fsync-per-mutation
	// baseline. It exists to quantify the group-commit gap (the tacobench
	// durable-naive lane); production use wants the default group commit.
	SyncEveryRecord bool
	// NoSync skips fdatasync entirely (records are still written). For
	// tests that exercise log structure without paying disk latency;
	// provides no crash durability.
	NoSync bool
	// CompactRatio triggers background compaction when the live segment
	// holds more than CompactRatio× the last snapshot's bytes.
	// Default 4.
	CompactRatio int
	// CompactMinBytes is the floor below which the segment is never
	// compacted, whatever the ratio says. Default 1 MiB.
	CompactMinBytes int64
	// Logf, if non-nil, receives operational log lines (compaction results,
	// sticky failures).
	Logf func(format string, args ...any)
	// OnFailure, if non-nil, is invoked exactly once — from its own
	// goroutine — when the WAL takes its first sticky failure. Daemons use
	// it to raise a loud alarm the moment durability is lost, instead of
	// discovering the wreck at the next explicit Sync.
	OnFailure func(err error)
}

func (o *Options) setDefaults() {
	if o.CompactRatio <= 0 {
		o.CompactRatio = 4
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Stats is a snapshot of a WAL's accounting.
type Stats struct {
	// Records counts redo records accepted since Open.
	Records int64
	// Syncs counts fdatasync barriers issued. Records/Syncs is the group
	// commit batching factor.
	Syncs int64
	// Compactions counts completed snapshot compactions.
	Compactions int64
	// SegmentBytes is the record payload currently in the live segment.
	SegmentBytes int64
	// SnapshotBytes is the size of the newest durable snapshot.
	SnapshotBytes int64
	// SyncFailures counts write/sync errors. Failure is sticky, so this is
	// 0 or 1 in practice; it exists so monitors can alert on >0 without
	// having to provoke a Sync.
	SyncFailures int64
	// LastSyncError is the sticky failure's message, "" while healthy.
	LastSyncError string
	// BatchHist is the group-commit batch-size distribution:
	// BatchHist[i] counts fdatasync barriers whose record batch fell in
	// bucket i of batchHistBounds — 0, 1, 2, 3-4, 5-8, 9-16, 17-32,
	// 33-64, 65+ records per sync. Records/Syncs gives the mean batching
	// factor; the histogram shows its shape (a durable lane stuck at
	// batch=1 is paying one fsync per record no matter what the mean
	// says), which is what the group-commit barrier work needs to see.
	BatchHist [numBatchBuckets]int64
}

// batchHistBounds[i] is the inclusive upper bound of BatchHist bucket i;
// the last bucket is unbounded.
var batchHistBounds = [numBatchBuckets - 1]int64{0, 1, 2, 4, 8, 16, 32, 64}

const numBatchBuckets = 9

// batchBucket maps a records-per-sync count to its BatchHist bucket.
func batchBucket(n int64) int {
	for i, b := range batchHistBounds {
		if n <= b {
			return i
		}
	}
	return numBatchBuckets - 1
}

// FormatBatchHist renders the non-empty BatchHist buckets as
// "bucket:count" pairs, e.g. "1:3 5-8:12 65+:1". Empty when no syncs have
// happened.
func (s Stats) FormatBatchHist() string {
	labels := [numBatchBuckets]string{
		"0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+",
	}
	var b strings.Builder
	for i, n := range s.BatchHist {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", labels[i], n)
	}
	return b.String()
}

// WAL is a write-ahead log bound to one file cabinet. It implements
// folder.Journal: attach it with FileCabinet.SetJournal (Open does this)
// and every cabinet mutation appends a redo record to the in-memory tail;
// Sync is the durability barrier that group-commits the tail to disk.
//
// Group commit has the same first-writer-flushes shape as the TCP
// transport's write coalescer: the first barrier caller that finds no sync
// in flight becomes the flusher and syncs every record recorded so far —
// including other goroutines' — in one write + fdatasync; callers that
// arrive while a sync is in flight wait for the next cycle and share it.
// N concurrent meets therefore pay ~1 fsync, not N.
//
// A write or sync failure is sticky: the WAL stops accepting records,
// every current and future Sync returns the error, and the daemon is
// expected to treat it as fatal for durability. The in-memory cabinet
// keeps working.
type WAL struct {
	dir string
	cab *folder.FileCabinet
	opt Options

	mu   sync.Mutex
	cond *sync.Cond // signals sync-cycle completion (and compaction exit)

	f        *os.File // live segment, opened for append
	seg      uint64   // live segment sequence number
	buf      []byte   // records recorded but not yet written
	spare    []byte   // recycled buf backing array
	seq      uint64   // last record number assigned
	synced   uint64   // last record number durably on disk
	syncing  bool     // a flush cycle is in flight
	closed   bool
	err      error // sticky first failure
	segBytes int64 // record bytes durably in the live segment

	snapBytes  int64  // size of the newest snapshot's briefcase body
	snapSeq    uint64 // sequence of the newest durable snapshot (0: none)
	firstSeg   uint64 // oldest segment still on disk
	compacting bool

	notify chan<- struct{} // replication shipper wakeup (nonblocking sends)

	stRecords     atomic.Int64
	stSyncs       atomic.Int64
	stCompactions atomic.Int64
	stFailures    atomic.Int64
	stBatchHist   [numBatchBuckets]int64 // guarded by mu (flush + Stats)
}

// maxRetainedBuf bounds the recycled record buffer so one huge load record
// does not pin its allocation forever.
const maxRetainedBuf = 1 << 20

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.bin", seq))
}

// Open recovers the WAL directory's snapshot + log into cab (which must be
// the recovering process's otherwise-untouched cabinet), then attaches the
// returned WAL as the cabinet's journal so subsequent mutations are logged.
// A missing or empty directory starts a fresh log.
func Open(dir string, cab *folder.FileCabinet, opt Options) (*WAL, error) {
	opt.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{dir: dir, cab: cab, opt: opt}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	cab.SetJournal(w)
	return w, nil
}

// WriteFileAtomic writes a file with the crash-safe discipline the engine
// uses for snapshots: temp file, write, fdatasync, rename, parent-directory
// fsync — a crash leaves either the old file or the new, never a
// half-written one. sync=false skips both syncs (throwaway/test data). The
// temp file is removed on every failure path. WAL snapshots and the replica
// both write through it.
func WriteFileAtomic(path string, sync bool, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := fdatasync(f); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if !sync {
		return nil
	}
	return syncDir(filepath.Dir(path))
}

// Err reports the sticky failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns a snapshot of the WAL's accounting.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	seg, snap := w.segBytes, w.snapBytes
	hist := w.stBatchHist
	lastErr := ""
	if w.err != nil {
		lastErr = w.err.Error()
	}
	w.mu.Unlock()
	return Stats{
		Records:       w.stRecords.Load(),
		Syncs:         w.stSyncs.Load(),
		Compactions:   w.stCompactions.Load(),
		SegmentBytes:  seg,
		SnapshotBytes: snap,
		SyncFailures:  w.stFailures.Load(),
		LastSyncError: lastErr,
		BatchHist:     hist,
	}
}

// SetSyncNotify installs a wakeup channel that receives a nonblocking send
// after every successful sync cycle and compaction — state changes a
// replication shipper cares about. A nil channel disables notification.
// The channel should be buffered (capacity 1 suffices: a coalesced wakeup
// means "re-read TailView", not "one event each").
func (w *WAL) SetSyncNotify(ch chan<- struct{}) {
	w.mu.Lock()
	w.notify = ch
	w.mu.Unlock()
}

// notifyLocked pokes the sync-notify channel, dropping the wakeup if one is
// already pending. Called with w.mu held.
func (w *WAL) notifyLocked() {
	if w.notify == nil {
		return
	}
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// --- folder.Journal (called under the mutated shard's write lock) ---

// usableLocked reports whether the WAL still accepts records.
func (w *WAL) usableLocked() bool { return w.err == nil && !w.closed }

// RecordAppend logs an element append (and TestAndAppend's append half).
func (w *WAL) RecordAppend(name string, e []byte) {
	w.mu.Lock()
	if !w.usableLocked() {
		w.mu.Unlock()
		return
	}
	var start int
	w.buf, start = beginRecord(w.buf, opAppend)
	w.buf = appendName(w.buf, name)
	w.buf = append(w.buf, e...)
	w.sealRecordLocked(start) // unlocks
}

// RecordPut logs a wholesale folder replacement.
func (w *WAL) RecordPut(name string, f *folder.Folder) {
	w.mu.Lock()
	if !w.usableLocked() {
		w.mu.Unlock()
		return
	}
	var start int
	w.buf, start = beginRecord(w.buf, opPut)
	w.buf = appendName(w.buf, name)
	w.buf = folder.AppendFolder(w.buf, f)
	w.sealRecordLocked(start) // unlocks
}

// RecordDequeue logs removal of a folder's first element.
func (w *WAL) RecordDequeue(name string) { w.recordNameOnly(opDequeue, name) }

// RecordDelete logs removal of an entire folder.
func (w *WAL) RecordDelete(name string) { w.recordNameOnly(opDelete, name) }

func (w *WAL) recordNameOnly(op byte, name string) {
	w.mu.Lock()
	if !w.usableLocked() {
		w.mu.Unlock()
		return
	}
	var start int
	w.buf, start = beginRecord(w.buf, op)
	w.buf = appendName(w.buf, name)
	w.sealRecordLocked(start) // unlocks
}

// RecordLoad logs a wholesale cabinet replacement.
func (w *WAL) RecordLoad(enc []byte) {
	w.mu.Lock()
	if !w.usableLocked() {
		w.mu.Unlock()
		return
	}
	var start int
	w.buf, start = beginRecord(w.buf, opLoad)
	w.buf = append(w.buf, enc...)
	w.sealRecordLocked(start) // unlocks
}

// sealRecordLocked finishes the framed record started at start, assigns its
// sequence number, and — in naive mode — syncs it inline. Releases w.mu.
func (w *WAL) sealRecordLocked(start int) {
	finishRecord(w.buf, start)
	w.seq++
	w.stRecords.Add(1)
	if w.opt.SyncEveryRecord && w.err == nil {
		// The naive baseline: one unconditional write + fdatasync per
		// record, serialized — even when a concurrent flush already wrote
		// these bytes, exactly as fsync-per-mutation code behaves. No
		// gather, no sharing; this is the mode group commit is measured
		// against.
		for w.syncing {
			w.cond.Wait()
		}
		// Re-check after the wait: a Close that won the wakeup race has
		// already synced this record in its final cycle and nilled the
		// segment file — flushing here would poison the WAL with a
		// spurious EBADF.
		if w.usableLocked() {
			w.syncing = true
			w.flushLocked()
			w.syncing = false
			w.cond.Broadcast()
		}
	}
	w.mu.Unlock()
}

// --- group commit ---

// Sync is the durability barrier: it returns once every mutation recorded
// before the call is on stable storage, or with the sticky error. A clean
// WAL (nothing pending) returns immediately without touching the disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.seq
	for w.err == nil && w.synced < target {
		if w.syncing {
			w.cond.Wait() // share the in-flight (or next) cycle
			continue
		}
		w.runSyncCycleLocked()
	}
	// The sticky error wins even when nothing was pending: once the WAL
	// has failed — and likewise once it is closed — new records are being
	// refused (seq frozen), so "synced >= target" is vacuous; returning
	// nil would acknowledge durability for mutations that were never
	// journaled.
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrWALClosed
	}
	return nil
}

// runSyncCycleLocked makes the caller the flusher for one cycle: it writes
// and fdatasyncs everything recorded so far, then wakes the waiters that
// accumulated meanwhile. Called with w.mu held; w.mu is released around the
// disk I/O and re-held on return.
//
// Before paying the sync, the flusher yields the processor once — the same
// gather step as the TCP transport's write coalescer: meets that are
// already runnable (typically the waiters the previous cycle just woke)
// get to finish their mutations and join this cycle as waiters, so a full
// complement of concurrent meets shares every fdatasync instead of
// trickling in one sync behind. A lone committer's yield returns
// immediately and costs nothing.
func (w *WAL) runSyncCycleLocked() {
	w.syncing = true
	w.mu.Unlock()
	runtime.Gosched() // gather: let runnable recorders join this cycle
	w.mu.Lock()
	w.flushLocked()
	w.syncing = false
	w.cond.Broadcast()
}

// flushLocked writes the pending record tail to the live segment and
// fdatasyncs it. Called with w.mu held and w.syncing true; unlocks around
// the I/O.
func (w *WAL) flushLocked() {
	batch := w.buf
	target := w.seq
	pending := int64(target - w.synced) // records this barrier commits
	if w.spare != nil {
		w.buf, w.spare = w.spare[:0], nil
	} else {
		w.buf = nil
	}
	f := w.f
	w.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if _, err = f.Write(batch); err != nil {
			err = fmt.Errorf("store: segment write: %w", err)
		}
	}
	if err == nil && !w.opt.NoSync {
		if serr := fdatasync(f); serr != nil {
			err = fmt.Errorf("store: segment sync: %w", serr)
		}
	}

	w.mu.Lock()
	if err != nil {
		w.failLocked(err)
	} else {
		w.synced = target
		w.segBytes += int64(len(batch))
		w.stSyncs.Add(1)
		w.stBatchHist[batchBucket(pending)]++
		if len(batch) > 0 {
			w.notifyLocked()
		}
		w.maybeCompactLocked()
	}
	if cap(batch) <= maxRetainedBuf && w.spare == nil {
		w.spare = batch[:0]
	}
}

// failLocked records the sticky failure. Durability is gone from here on:
// Sync reports the error, new records are refused, the in-memory cabinet
// keeps serving.
func (w *WAL) failLocked(err error) {
	if w.err == nil {
		w.err = err
		w.stFailures.Add(1)
		w.opt.logf("store: WAL failed, durability lost: %v", err)
		if cb := w.opt.OnFailure; cb != nil {
			// Own goroutine: the callback may call back into the WAL
			// (Stats, Sync) or block on logging without holding w.mu.
			go cb(err)
		}
	}
}

// Close flushes the tail, syncs, and closes the segment. The WAL accepts no
// records afterwards (the cabinet keeps working in memory); detach it from
// long-lived cabinets if mutations continue past Close.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for w.syncing || w.compacting {
		w.cond.Wait()
	}
	if w.err == nil && w.synced < w.seq {
		w.runSyncCycleLocked()
	}
	err := w.err
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.mu.Unlock()
	return err
}

// createSegment creates segment seq with a durable header (file and
// directory synced) and returns it ready for appends. Reads only immutable
// WAL state, so it may run without w.mu — compaction creates the next
// segment before entering its locked rotation window.
func (w *WAL) createSegment(seq uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(w.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	hdr := appendFileHeader(make([]byte, 0, fileHdrSize), segMagic, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: segment header: %w", err)
	}
	if !w.opt.NoSync {
		if err := fdatasync(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: segment header sync: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: segment dir sync: %w", err)
		}
	}
	return f, nil
}

// openSegmentLocked creates segment seq and swaps it in as the live
// segment. Called with w.mu held (recovery only, where nothing contends).
func (w *WAL) openSegmentLocked(seq uint64) error {
	f, err := w.createSegment(seq)
	if err != nil {
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.seg = seq
	w.segBytes = 0
	return nil
}
