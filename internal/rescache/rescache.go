// Package rescache is a content-addressed result cache for expensive,
// deterministic evaluations. Values are opaque byte blobs addressed by
// a caller-supplied key (in practice a canonical SHA-256 fingerprint of
// the evaluation's full input, see seda.ConfigFingerprint), so a key
// can only ever map to one value and entries never need invalidation —
// changing any input changes the key.
//
// The cache is three layers deep:
//
//   - an in-memory LRU bounded by entry count,
//   - an optional write-through disk layer (one file per key, written
//     atomically and sealed with a SHA-256 integrity footer so torn or
//     bit-rotted entries are detected on read), surviving process
//     restarts,
//   - a singleflight front: concurrent lookups of the same missing key
//     coalesce onto one computation; the rest block and share its
//     result. N identical concurrent requests perform exactly one
//     evaluation.
//
// Computations are cancellation-aware and crash-isolated. Each compute
// runs on its own goroutine under a context detached from any single
// caller: a caller whose context is cancelled detaches immediately
// (GetOrComputeCtx returns ctx.Err()) without leaking its compute slot
// or poisoning the other waiters, and the computation itself is
// cancelled only when every interested caller has detached — one
// impatient client never kills a result another client is still
// waiting for. An optional per-compute deadline
// (Options.ComputeTimeout) bounds how long a stuck evaluation can
// occupy a compute slot, and a panicking compute is recovered into an
// error (wrapping ErrComputePanic) delivered to all waiters instead of
// taking the process down. Failed or cancelled computations are never
// cached, so the cache only ever holds complete results.
//
// All methods are safe for concurrent use. Returned blobs are shared —
// callers must treat them as read-only.
package rescache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// ErrSaturated is returned by GetOrComputeCtx when the cache cannot serve
// a key from any layer and the bounded compute capacity
// (Options.MaxInflightComputes) is fully occupied by other keys. The
// result is not cached, so a later call retries; servers map it to a
// 503 with Retry-After.
var ErrSaturated = errors.New("rescache: compute capacity saturated")

// ErrCacheOnly is returned by GetOrComputeCtx on a cache-only instance
// (Options.CacheOnly) when the key is in neither the memory nor the
// disk layer. A cache-only instance never evaluates: it is the
// degraded-serving tier of a cluster front-end, answering only what
// some replica already published to the shared disk directory.
var ErrCacheOnly = errors.New("rescache: miss on cache-only instance")

// ErrComputePanic is wrapped by the error every waiter receives when a
// computation panics. The panic is recovered on the compute goroutine,
// so the process survives and the compute slot is released.
var ErrComputePanic = errors.New("rescache: compute panicked")

// Failpoint site names (see internal/failpoint). Armed in chaos tests
// and via SEDA_FAILPOINTS; no-ops otherwise.
const (
	// FailpointDiskGet injects a disk read error (counted in
	// Stats.DiskReadErrors; the lookup degrades to a miss).
	FailpointDiskGet = "rescache.diskGet"
	// FailpointDiskCorrupt corrupts the bytes read from disk before
	// integrity verification, simulating a torn read.
	FailpointDiskCorrupt = "rescache.diskGet.corrupt"
	// FailpointDiskPut injects a disk write error (counted in
	// Stats.DiskWriteErrors; the entry stays memory-only).
	FailpointDiskPut = "rescache.diskPut"
	// FailpointCompute fires at the top of every computation, with the
	// compute's context: sleep = slow compute, panic = crashing
	// compute, error = failing compute, EnableFunc = cancel-at-point.
	FailpointCompute = "rescache.compute"
)

// DefaultMaxEntries bounds the in-memory LRU when Options.MaxEntries
// is zero. Entries are whole sweep results (a few KB each), so the
// default comfortably holds every (NPU, workload) pair of the paper's
// evaluation many times over.
const DefaultMaxEntries = 1024

// footerLen is the length of the disk-entry integrity footer: a
// SHA-256 digest of the payload appended at the end of the file. A
// file whose digest does not match (truncated write, bit rot, a
// pre-footer legacy entry) is treated as a miss, counted in
// Stats.DiskReadErrors and deleted, so the next lookup recomputes and
// rewrites a sealed entry — corruption self-heals and corrupted bytes
// are never returned.
const footerLen = sha256.Size

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the in-memory LRU; 0 means DefaultMaxEntries.
	MaxEntries int
	// Dir enables the disk layer when non-empty: every computed value
	// is written through to Dir/<key>, and memory misses consult the
	// directory before computing. The directory is created if needed.
	Dir string
	// MaxInflightComputes bounds how many distinct keys may be
	// computing at once; 0 means unlimited. Hits (memory, disk) and
	// coalesced waiters never consume a slot — only a full miss that
	// would start a fresh evaluation does — and when no slot is free
	// GetOrComputeCtx sheds the request with ErrSaturated instead of
	// queueing unbounded CPU work.
	MaxInflightComputes int
	// ComputeTimeout bounds each computation's wall-clock time; 0
	// means unbounded. The deadline is attached to the context the
	// compute function receives, so a cancellation-aware evaluation
	// unwinds and frees its compute slot instead of occupying it
	// forever; waiters receive context.DeadlineExceeded.
	ComputeTimeout time.Duration
	// CacheOnly makes the instance read-only with respect to
	// evaluation: lookups consult memory and disk, but a full miss
	// returns ErrCacheOnly instead of computing. This is the router's
	// graceful-degradation tier — a second Cache on a replica's Dir
	// that can serve published results while every replica is down.
	CacheOnly bool
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits            uint64 // served from the in-memory LRU
	DiskHits        uint64 // served from the disk layer (and promoted)
	Coalesced       uint64 // waited on an in-flight computation of the same key
	Computes        uint64 // actual evaluations executed
	Errors          uint64 // computations that returned an error (not cached)
	Shed            uint64 // misses rejected at the bounded compute capacity
	Panics          uint64 // computations that panicked (recovered into errors)
	DiskReadErrors  uint64 // disk lookups that failed or failed integrity verification
	DiskWriteErrors uint64 // disk write-throughs that failed (entry stays memory-only)
	Entries         int    // current in-memory entry count
	Inflight        int    // computations currently executing
}

// call is one in-flight computation; waiters block on done. waiters
// counts the callers (leader included) still interested in the result:
// a caller whose context is cancelled decrements it on the way out,
// and when it reaches zero cancel — set once the compute context
// exists — aborts the computation, freeing its slot. fromDisk records
// that the "computation" was actually a disk-layer hit.
type call struct {
	done     chan struct{}
	blob     []byte
	err      error
	fromDisk bool

	waiters int
	cancel  context.CancelFunc
}

// Cache is a content-addressed blob cache. The zero value is not
// usable; construct with New.
type Cache struct {
	maxEntries     int
	dir            string
	computeTimeout time.Duration
	cacheOnly      bool
	sem            chan struct{} // compute slots; nil = unlimited

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*call
	stats    Stats
}

type entry struct {
	key  string
	blob []byte
}

// ResolveDir interprets the -cache-dir convention shared by seda-serve
// and seda-sweep, so both tools warm the same entries: "off" (or
// empty) disables the disk layer, "auto" is a per-user default
// directory (memory-only when the platform has none), anything else is
// a literal path.
func ResolveDir(flagValue string) string {
	switch flagValue {
	case "", "off":
		return ""
	case "auto":
		base, err := os.UserCacheDir()
		if err != nil {
			return ""
		}
		return filepath.Join(base, "seda-repro")
	default:
		return flagValue
	}
}

// New builds a cache. If opts.Dir is non-empty the directory is
// created; a directory that cannot be created is an error (callers
// that want best-effort disk caching should drop the dir themselves).
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: disk layer: %w", err)
		}
	}
	c := &Cache{
		maxEntries:     opts.MaxEntries,
		dir:            opts.Dir,
		computeTimeout: opts.ComputeTimeout,
		cacheOnly:      opts.CacheOnly,
		ll:             list.New(),
		entries:        make(map[string]*list.Element),
		inflight:       make(map[string]*call),
	}
	if opts.MaxInflightComputes > 0 {
		c.sem = make(chan struct{}, opts.MaxInflightComputes)
	}
	return c, nil
}

// GetOrComputeCtx returns the blob for key, computing it at most once
// per process no matter how many goroutines ask concurrently. hit
// reports whether the caller's own request was served without running
// compute (memory hit, disk hit, or coalesced onto another caller's
// in-flight computation). Errors from compute are returned to every
// coalesced caller and are not cached. The context governs only this
// caller's wait, not the computation: compute runs
// on its own goroutine under a context derived from the cache (plus
// Options.ComputeTimeout), and ctx expiring makes this call return
// ctx.Err() immediately — the compute slot is not leaked, other
// waiters are unaffected, and the computation itself is cancelled only
// once every waiter has detached, so an abandoned evaluation stops
// burning CPU while a shared one survives any single client.
//
// compute receives that detached context and should honor it; the
// result of a cancelled or failed compute is never cached.
func (c *Cache) GetOrComputeCtx(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (blob []byte, hit bool, err error) {
	// The get span covers the full lookup including a coalesced wait;
	// disk and compute child spans attach under it from the lead
	// goroutine via the detached context below.
	ctx, getSpan := obs.Start(ctx, obs.StageCacheGet)
	defer getSpan.End()
	c.mu.Lock()
	if blob, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		return blob, true, nil
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		cl.waiters++
		c.mu.Unlock()
		return c.wait(ctx, cl, false)
	}
	cl := &call{done: make(chan struct{}), waiters: 1}
	c.inflight[key] = cl
	c.mu.Unlock()

	// This call is the leader for key, but the work runs on a separate
	// goroutine so the leader can detach on cancellation exactly like a
	// coalesced waiter. The goroutine checks disk and, on a full miss,
	// evaluates; same-key callers block on cl.done. A fresh evaluation
	// needs a compute slot when the capacity is bounded — none free
	// means the whole machine is already saturated with evaluations, so
	// the computation (and everyone coalesced onto it) sheds with
	// ErrSaturated rather than piling more CPU work behind a growing
	// tail latency.
	// The lead goroutine gets the observability state of the leader's
	// context (current span, request ID) but none of its cancellation:
	// the computation outlives any single waiter by design, while its
	// spans should still land in the leading request's trace.
	go c.lead(obs.Detach(ctx), key, cl, compute)
	return c.wait(ctx, cl, true)
}

// wait blocks until the call resolves or the caller's context expires.
// On cancellation the caller detaches: its interest is withdrawn, and
// if it was the last interested party the computation itself is
// cancelled (freeing the compute slot as soon as the compute function
// observes its context).
func (c *Cache) wait(ctx context.Context, cl *call, leader bool) ([]byte, bool, error) {
	select {
	case <-cl.done:
		if cl.err != nil {
			return nil, false, cl.err
		}
		return cl.blob, !leader || cl.fromDisk, nil
	case <-ctx.Done():
		c.mu.Lock()
		cl.waiters--
		cancel := cl.cancel
		abandoned := cl.waiters == 0
		c.mu.Unlock()
		if abandoned && cancel != nil {
			cancel()
		}
		return nil, false, ctx.Err()
	}
}

// lead runs one key's resolution on its own goroutine: disk probe,
// slot acquisition, compute, accounting, publication. octx carries
// only observability state (see GetOrComputeCtx), never cancellation.
func (c *Cache) lead(octx context.Context, key string, cl *call, compute func(context.Context) ([]byte, error)) {
	if diskBlob, ok := c.diskGet(octx, key); ok {
		cl.blob, cl.fromDisk = diskBlob, true
	} else if c.cacheOnly {
		// A cache-only instance answers only what is already published;
		// a full miss is a defined outcome, not a failure, and consumes
		// no compute slot.
		cl.err = ErrCacheOnly
	} else if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
			c.runCompute(octx, cl, compute)
			<-c.sem
		default:
			cl.err = ErrSaturated
		}
	} else {
		c.runCompute(octx, cl, compute)
	}

	// Write through to disk before publishing, so a caller that
	// observed the result can rely on the disk entry existing (and a
	// write failure is already counted when Stats is read).
	if cl.err == nil && !cl.fromDisk {
		c.diskPut(octx, key, cl.blob)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	switch {
	case errors.Is(cl.err, ErrSaturated):
		c.stats.Shed++
	case errors.Is(cl.err, ErrCacheOnly):
		// Neither an error nor a shed: a cache-only miss is the
		// instance doing exactly its job.
	case cl.err != nil:
		c.stats.Errors++
		if errors.Is(cl.err, ErrComputePanic) {
			c.stats.Panics++
		}
	case cl.fromDisk:
		c.stats.DiskHits++
		c.memAddLocked(key, cl.blob)
	default:
		c.stats.Computes++
		c.memAddLocked(key, cl.blob)
	}
	c.mu.Unlock()
	close(cl.done)
}

// runCompute executes compute under the call's detached context,
// converting panics into errors so a crashing evaluation cannot take
// the process down or strand its waiters.
func (c *Cache) runCompute(octx context.Context, cl *call, compute func(context.Context) ([]byte, error)) {
	// octx (a Detach product) contributes spans and the request ID but
	// no deadline, so the compute lifetime rules are exactly as before:
	// ComputeTimeout or explicit abandonment, nothing else.
	ctx := octx
	var cancel context.CancelFunc
	if c.computeTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.computeTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ctx, span := obs.Start(ctx, obs.StageCompute)
	defer span.End()

	c.mu.Lock()
	cl.cancel = cancel
	abandoned := cl.waiters == 0
	c.mu.Unlock()
	if abandoned {
		// Every caller detached before the compute context existed;
		// start it pre-cancelled so a context-aware compute returns
		// immediately instead of evaluating for nobody.
		cancel()
	}

	defer func() {
		if r := recover(); r != nil {
			cl.blob, cl.err = nil, fmt.Errorf("%w: %v", ErrComputePanic, r)
		}
	}()
	if err := failpoint.Inject(ctx, FailpointCompute); err != nil {
		cl.err = err
		return
	}
	cl.blob, cl.err = compute(ctx)
}

// ComputeSlots returns the bounded compute capacity (0 = unlimited).
// Callers that fan one logical request out over several keys should
// bound their own parallelism by this, so a single request cannot
// saturate the capacity against itself.
func (c *Cache) ComputeSlots() int { return cap(c.sem) }

// Evict removes key from the in-memory LRU and the disk layer. It is
// the recovery path for corrupt entries (e.g. a truncated cache file):
// the next lookup recomputes instead of re-serving the bad blob.
func (c *Cache) Evict(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if path, ok := c.diskPath(key); ok {
		os.Remove(path) //nolint:errcheck
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Inflight = len(c.inflight)
	return s
}

func (c *Cache) memGetLocked(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*entry).blob, true
}

func (c *Cache) memAddLocked(key string, blob []byte) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).blob = blob
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, blob: blob})
	for c.ll.Len() > c.maxEntries {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
	}
}

// diskPath maps a key to its file. Keys are hex fingerprints, so they
// are path-safe; reject anything else to keep the cache dir closed
// under arbitrary key inputs.
func (c *Cache) diskPath(key string) (string, bool) {
	if c.dir == "" || key == "" {
		return "", false
	}
	for _, r := range key {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F') {
			return "", false
		}
	}
	return filepath.Join(c.dir, key), true
}

func (c *Cache) noteDiskReadError() {
	c.mu.Lock()
	c.stats.DiskReadErrors++
	c.mu.Unlock()
}

func (c *Cache) noteDiskWriteError() {
	c.mu.Lock()
	c.stats.DiskWriteErrors++
	c.mu.Unlock()
}

// diskGet reads and verifies a disk entry. IO failures (other than the
// file simply not existing) and integrity-footer mismatches count as
// disk read errors and degrade to a miss; a corrupt file is deleted so
// the recompute path rewrites a sealed entry.
func (c *Cache) diskGet(ctx context.Context, key string) ([]byte, bool) {
	path, ok := c.diskPath(key)
	if !ok {
		return nil, false
	}
	span := obs.StartChild(ctx, obs.StageCacheDisk)
	defer span.End()
	if err := failpoint.Inject(nil, FailpointDiskGet); err != nil {
		c.noteDiskReadError()
		return nil, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.noteDiskReadError()
		}
		return nil, false
	}
	raw = failpoint.Corrupt(FailpointDiskCorrupt, raw)
	if len(raw) < footerLen {
		c.noteDiskReadError()
		os.Remove(path) //nolint:errcheck
		return nil, false
	}
	blob, footer := raw[:len(raw)-footerLen], raw[len(raw)-footerLen:]
	if sum := sha256.Sum256(blob); [footerLen]byte(footer) != sum {
		c.noteDiskReadError()
		os.Remove(path) //nolint:errcheck
		return nil, false
	}
	return blob, true
}

// diskPut writes the blob plus its integrity footer atomically (temp
// file + rename) so readers never observe a torn entry, and torn
// writes that slip through (power loss mid-rename on weaker
// filesystems) fail the footer check on read. Write failures keep the
// entry memory-only and are counted in Stats.DiskWriteErrors: the disk
// layer is an accelerator, not a store of record.
func (c *Cache) diskPut(ctx context.Context, key string, blob []byte) {
	path, ok := c.diskPath(key)
	if !ok {
		return
	}
	span := obs.StartChild(ctx, obs.StageCacheDisk)
	defer span.End()
	if err := failpoint.Inject(nil, FailpointDiskPut); err != nil {
		c.noteDiskWriteError()
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		c.noteDiskWriteError()
		return
	}
	name := tmp.Name()
	sum := sha256.Sum256(blob)
	_, werr := tmp.Write(blob)
	if werr == nil {
		_, werr = tmp.Write(sum[:])
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name) //nolint:errcheck
		c.noteDiskWriteError()
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name) //nolint:errcheck
		c.noteDiskWriteError()
	}
}
