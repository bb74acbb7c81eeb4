// Package cascache implements the content-addressed staging cache: a
// per-dataspace store of transfer segments keyed by the SHA-256 of
// their content, so repeated stage-ins of the same dataset serve bytes
// from local disk instead of the fabric.
//
// The cache unit is the segment the PR 3 transfer planner already
// defines: one entry holds exactly one segment's bytes, named by the
// hex digest of those bytes, namespaced under a directory derived from
// the source dataspace ID. Entries are committed with an atomic rename,
// so a crash mid-fill leaves only temp files (swept at the next Open)
// and never a torn entry under a valid name.
//
// Trust model (the onedrive-go sync-engine lesson: hash before you
// trust, mtime is not identity): an entry written by this process is
// verified at commit time, and the rename only happens on a digest
// match. A fill hashes its bytes as they are written, so it is verified
// without reading the segment back; every fill is fed by one in-order
// bulk pull, and a fill whose writes did not arrive front to back, or
// failed, is rejected at Commit. Entries
// found on disk at Open (a restart) are loaded as unverified; the first
// serve re-hashes them en route to the destination and either promotes
// them to verified or quarantines them. Only verified entries may be
// served through the zero-copy RangeCopier offload path, which cannot
// hash in flight.
//
// Eviction is size-bounded LRU. Serving opens the entry's file before
// eviction can unlink it, so a reader racing an eviction keeps a valid
// descriptor (POSIX unlink semantics) and finishes its copy; the space
// is reclaimed when the last descriptor closes.
package cascache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/ngioproject/norns-go/internal/bufpool"
)

// DigestLen is the byte length of a segment digest (SHA-256).
const DigestLen = sha256.Size

// configBody identifies the on-disk format. A cache directory whose
// config does not match byte-for-byte is wiped at Open: a format or
// algorithm change must never let stale entries masquerade as valid.
const configBody = "norns-cascache v1 sha256\n"

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Bytes/CapBytes are the current footprint and the configured bound.
	Bytes    int64
	CapBytes int64
	Entries  int
}

// entry is one cached segment.
type entry struct {
	key      string
	path     string
	size     int64
	verified bool
	elem     *list.Element // position in the LRU list (front = hottest)
}

// Cache is a size-bounded content-addressed segment store. All methods
// are safe for concurrent use.
type Cache struct {
	dir string
	cap int64

	mu        sync.Mutex
	entries   map[string]*entry
	lru       *list.List // of *entry
	bytes     int64
	filling   map[string]bool // single-flight: keys with a fill in progress
	hits      uint64
	misses    uint64
	evictions uint64
}

func objectsDir(dir string) string    { return filepath.Join(dir, "objects") }
func tmpDir(dir string) string        { return filepath.Join(dir, "tmp") }
func quarantineDir(dir string) string { return filepath.Join(dir, "quarantine") }
func configPath(dir string) string    { return filepath.Join(dir, "config") }

// key derives the entry key (and relative path) for a dataspace-scoped
// digest. The dataspace ID contains URL punctuation, so its namespace
// directory is a hash of the ID, not the ID itself.
func key(dataspace string, digest []byte) string {
	ns := sha256.Sum256([]byte(dataspace))
	return hex.EncodeToString(ns[:8]) + "/" + hex.EncodeToString(digest)
}

// Open loads (creating if needed) the cache rooted at dir, bounded to
// capBytes (<= 0 selects 256 MiB). Entries already on disk are adopted
// as unverified; temp files from an interrupted fill are swept.
func Open(dir string, capBytes int64) (*Cache, error) {
	if capBytes <= 0 {
		capBytes = 256 << 20
	}
	for _, d := range []string{dir, objectsDir(dir), tmpDir(dir), quarantineDir(dir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("cascache: %w", err)
		}
	}
	if err := ensureConfig(dir); err != nil {
		return nil, err
	}
	c := &Cache{
		dir:     dir,
		cap:     capBytes,
		entries: make(map[string]*entry),
		lru:     list.New(),
		filling: make(map[string]bool),
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// ensureConfig validates the cache's recorded configuration, wiping the
// object store when it disagrees — recovery must never trust entries
// written under a different key scheme or digest algorithm.
func ensureConfig(dir string) error {
	body, err := os.ReadFile(configPath(dir))
	switch {
	case err == nil && string(body) == configBody:
		return nil
	case err != nil && !os.IsNotExist(err):
		return fmt.Errorf("cascache: %w", err)
	case err == nil:
		// Config mismatch: the entries were written by an incompatible
		// layout. Drop them all rather than guess.
		if err := os.RemoveAll(objectsDir(dir)); err != nil {
			return fmt.Errorf("cascache: %w", err)
		}
		if err := os.MkdirAll(objectsDir(dir), 0o755); err != nil {
			return fmt.Errorf("cascache: %w", err)
		}
	}
	tmp := configPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, []byte(configBody), 0o644); err != nil {
		return fmt.Errorf("cascache: %w", err)
	}
	if err := os.Rename(tmp, configPath(dir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cascache: %w", err)
	}
	return nil
}

// load adopts existing entries (oldest first, so the LRU order reflects
// age) and sweeps interrupted fills.
func (c *Cache) load() error {
	if tmps, err := os.ReadDir(tmpDir(c.dir)); err == nil {
		for _, t := range tmps {
			os.Remove(filepath.Join(tmpDir(c.dir), t.Name()))
		}
	}
	namespaces, err := os.ReadDir(objectsDir(c.dir))
	if err != nil {
		return fmt.Errorf("cascache: %w", err)
	}
	type found struct {
		key, path string
		size      int64
		mtime     int64
	}
	var all []found
	for _, ns := range namespaces {
		if !ns.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(objectsDir(c.dir), ns.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue
			}
			all = append(all, found{
				key:   ns.Name() + "/" + f.Name(),
				path:  filepath.Join(objectsDir(c.dir), ns.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].mtime != all[b].mtime {
			return all[a].mtime < all[b].mtime
		}
		return all[a].key < all[b].key
	})
	for _, f := range all {
		e := &entry{key: f.key, path: f.path, size: f.size}
		e.elem = c.lru.PushFront(e)
		c.entries[f.key] = e
		c.bytes += f.size
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		CapBytes:  c.cap,
		Entries:   len(c.entries),
	}
}

// Entry is a pinned handle on one cached segment: the file is open, so
// a concurrent eviction cannot invalidate reads. Close it when done.
type Entry struct {
	f        *os.File
	size     int64
	verified bool
}

// Size returns the entry's byte length.
func (e *Entry) Size() int64 { return e.size }

// Verified reports whether the entry's content has been hash-verified
// by this process (at fill commit or on a previous serve). Unverified
// entries must be re-hashed while being served.
func (e *Entry) Verified() bool { return e.verified }

// ReadAt implements io.ReaderAt over the entry's content.
func (e *Entry) ReadAt(p []byte, off int64) (int, error) { return e.f.ReadAt(p, off) }

// File exposes the underlying *os.File so zero-copy range offload
// (sendfile/copy_file_range) can unwrap it.
func (e *Entry) File() *os.File { return e.f }

// Close releases the handle.
func (e *Entry) Close() error { return e.f.Close() }

// Get looks up a segment by (dataspace, digest). wantSize guards
// against a truncated or foreign file under the right name: a size
// mismatch is treated as a corrupt entry and dropped. Every call counts
// a hit or a miss.
func (c *Cache) Get(dataspace string, digest []byte, wantSize int64) (*Entry, bool) {
	k := key(dataspace, digest)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok && e.size != wantSize {
		c.dropLocked(e)
		ok = false
	}
	if !ok {
		c.misses++
		return nil, false
	}
	f, err := os.Open(e.path)
	if err != nil {
		c.dropLocked(e)
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return &Entry{f: f, size: e.size, verified: e.verified}, true
}

// MarkVerified promotes an entry after a successful hash-verifying
// serve, enabling the offload path for subsequent hits.
func (c *Cache) MarkVerified(dataspace string, digest []byte) {
	c.mu.Lock()
	if e, ok := c.entries[key(dataspace, digest)]; ok {
		e.verified = true
	}
	c.mu.Unlock()
}

// Quarantine removes an entry whose content failed digest verification,
// moving the file aside (objects are never served from quarantine) so
// the corruption stays inspectable instead of being silently rewritten.
func (c *Cache) Quarantine(dataspace string, digest []byte) {
	k := key(dataspace, digest)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return
	}
	dst := filepath.Join(quarantineDir(c.dir), filepath.Base(e.path))
	if err := os.Rename(e.path, dst); err != nil {
		os.Remove(e.path)
	}
	// Drop without counting an eviction: this is corruption, not size
	// pressure.
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// dropLocked removes a stale entry (unreadable or wrong size) without
// counting an eviction. Caller holds c.mu.
func (c *Cache) dropLocked(e *entry) {
	os.Remove(e.path)
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// evictLocked enforces the size bound, unlinking cold entries until the
// footprint fits. Open handles from earlier Gets keep reading their
// unlinked files. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		os.Remove(e.path)
		c.lru.Remove(e.elem)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Fill is an in-progress entry write. Exactly one fill per key exists
// at a time (single-flight); racing fillers receive nil from BeginFill
// and simply skip caching. Commit verifies the content digest before
// publishing; Abort discards.
type Fill struct {
	c      *Cache
	key    string
	digest []byte
	size   int64
	f      *os.File
	tmp    string
	done   bool

	// Hash-as-written state: h has absorbed exactly the bytes [0,hashed)
	// the fill wrote, in order. A write that does not extend that prefix
	// exactly, or that fails, sets broken and Commit rejects the fill.
	mu     sync.Mutex
	h      hash.Hash
	hashed int64
	broken bool
}

// BeginFill starts filling the entry for (dataspace, digest). It
// returns nil (no error) when the entry already exists or another fill
// for the same key is in flight — the caller proceeds without caching.
func (c *Cache) BeginFill(dataspace string, digest []byte, size int64) (*Fill, error) {
	k := key(dataspace, digest)
	c.mu.Lock()
	if _, exists := c.entries[k]; exists || c.filling[k] || size > c.cap {
		c.mu.Unlock()
		return nil, nil
	}
	c.filling[k] = true
	c.mu.Unlock()

	f, err := os.CreateTemp(tmpDir(c.dir), "fill-*")
	if err != nil {
		c.mu.Lock()
		delete(c.filling, k)
		c.mu.Unlock()
		return nil, fmt.Errorf("cascache: %w", err)
	}
	return &Fill{c: c, key: k, digest: digest, size: size, f: f, tmp: f.Name(), h: sha256.New()}, nil
}

// WriteAt writes segment bytes at their segment-relative offset and
// hashes them on the way. Writes must arrive in order, front to back;
// any other write, or a failed one, dooms the fill to rejection.
func (fl *Fill) WriteAt(p []byte, off int64) (int, error) {
	n, err := fl.f.WriteAt(p, off)
	fl.mu.Lock()
	if err == nil && !fl.broken && off == fl.hashed {
		fl.h.Write(p[:n])
		fl.hashed += int64(n)
	} else {
		fl.broken = true
	}
	fl.mu.Unlock()
	return n, err
}

// errDigest is returned by Commit when the filled bytes do not hash to
// the entry's digest.
var errDigest = errors.New("cascache: fill content does not match digest")

// errUnordered is returned by Commit when the fill's writes did not
// cover the segment front to back without a failure, so the hash taken
// as they landed does not describe the file.
var errUnordered = errors.New("cascache: fill not written in order")

// Commit verifies the filled content against the digest and publishes
// the entry with an atomic rename. On any failure the temp file is
// removed and nothing is published.
func (fl *Fill) Commit() error {
	if fl.done {
		return nil
	}
	fl.done = true
	defer func() {
		fl.c.mu.Lock()
		delete(fl.c.filling, fl.key)
		fl.c.mu.Unlock()
	}()
	err := fl.verify()
	if err == nil {
		err = fl.f.Sync()
	}
	if cerr := fl.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(fl.tmp)
		return err
	}
	dst := filepath.Join(objectsDir(fl.c.dir), filepath.FromSlash(fl.key))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(fl.tmp)
		return fmt.Errorf("cascache: %w", err)
	}
	if err := os.Rename(fl.tmp, dst); err != nil {
		os.Remove(fl.tmp)
		return fmt.Errorf("cascache: %w", err)
	}
	c := fl.c
	c.mu.Lock()
	if old, ok := c.entries[fl.key]; ok {
		// A racing path published first; ours replaced its file on disk,
		// which is byte-identical. Keep the bookkeeping single-entry.
		c.lru.Remove(old.elem)
		delete(c.entries, old.key)
		c.bytes -= old.size
	}
	e := &entry{key: fl.key, path: dst, size: fl.size, verified: true}
	e.elem = c.lru.PushFront(e)
	c.entries[fl.key] = e
	c.bytes += fl.size
	c.evictLocked()
	c.mu.Unlock()
	return nil
}

// verify checks the temp file's size and the digest of the bytes hashed
// as they were written.
func (fl *Fill) verify() error {
	info, err := fl.f.Stat()
	if err != nil {
		return fmt.Errorf("cascache: %w", err)
	}
	if info.Size() != fl.size {
		return fmt.Errorf("cascache: fill size %d, want %d", info.Size(), fl.size)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.broken || fl.hashed != fl.size {
		return errUnordered
	}
	if !equalDigest(fl.h.Sum(nil), fl.digest) {
		return errDigest
	}
	return nil
}

// Abort discards the fill.
func (fl *Fill) Abort() {
	if fl.done {
		return
	}
	fl.done = true
	fl.f.Close()
	os.Remove(fl.tmp)
	fl.c.mu.Lock()
	delete(fl.c.filling, fl.key)
	fl.c.mu.Unlock()
}

func equalDigest(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HashSegments computes the per-segment SHA-256 digests of size bytes
// read from r, segmented at segSize (the last segment may be short).
// It is the one digest routine both ends of the delta RPC share: the
// exposing node hashes the source, the pulling node hashes its local
// destination, and equality means the segment need not travel.
func HashSegments(r io.ReaderAt, size, segSize int64) ([][]byte, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("cascache: segment size %d", segSize)
	}
	if size <= 0 {
		return nil, nil
	}
	n := (size + segSize - 1) / segSize
	out := make([][]byte, 0, n)
	bufp := bufpool.Get(1 << 20)
	defer bufpool.Put(bufp)
	buf := *bufp
	for off := int64(0); off < size; off += segSize {
		segLen := minInt64(segSize, size-off)
		h := sha256.New()
		for done := int64(0); done < segLen; {
			chunk := minInt64(int64(len(buf)), segLen-done)
			m, err := r.ReadAt(buf[:chunk], off+done)
			if m > 0 {
				h.Write(buf[:m])
				done += int64(m)
			}
			if err != nil {
				if err == io.EOF && done == segLen {
					break
				}
				return nil, fmt.Errorf("cascache: hash segments: %w", err)
			}
		}
		out = append(out, h.Sum(nil))
	}
	return out, nil
}

// HashSegment computes the SHA-256 of one segment's bytes.
func HashSegment(r io.ReaderAt, off, length int64) ([]byte, error) {
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(r, off, length)); err != nil {
		return nil, fmt.Errorf("cascache: hash segment: %w", err)
	}
	return h.Sum(nil), nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
