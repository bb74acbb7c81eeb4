package transfer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/bufpool"
	"github.com/ngioproject/norns-go/internal/storage"
)

// This file implements the segmented transfer engine: a planner that
// splits a file into fixed-size segments, a worker pool that moves K
// segments concurrently, and the token-bucket bandwidth governor that
// throttles the aggregate — the mechanics behind the paper's staging
// bandwidth and interference experiments.

// Segment is one planned slice of a transfer.
type Segment struct {
	// Index is the segment's position in the plan (bitmap bit).
	Index int
	// Off/Len locate the slice in the file.
	Off, Len int64
}

// Plan splits total bytes into segSize-sized segments (the last may be
// short). A zero-byte transfer still plans one empty segment so the
// destination file is created and progress accounting stays uniform.
func Plan(total, segSize int64) []Segment {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if total <= 0 {
		return []Segment{{Index: 0, Off: 0, Len: 0}}
	}
	n := int((total + segSize - 1) / segSize)
	segs := make([]Segment, 0, n)
	for i := 0; i < n; i++ {
		off := int64(i) * segSize
		l := segSize
		if total-off < l {
			l = total - off
		}
		segs = append(segs, Segment{Index: i, Off: off, Len: l})
	}
	return segs
}

// RunSegments executes segments on up to streams concurrent workers.
// fn receives the worker's stream index (0..streams-1) — remote pulls
// key their fabric connection slot off it — and the segment. The first
// error cancels the remaining segments; if the parent ctx was cancelled
// (task cancel, deadline), ctx.Err() is returned so the caller maps the
// interrupt correctly instead of seeing a derived cancellation.
func RunSegments(ctx context.Context, segs []Segment, streams int, fn func(ctx context.Context, stream int, sg Segment) error) error {
	if streams <= 0 {
		streams = DefaultStreams
	}
	if streams > len(segs) {
		streams = len(segs)
	}
	if len(segs) == 0 {
		return ctx.Err()
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	ch := make(chan Segment)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for sg := range ch {
				if gctx.Err() != nil {
					continue // drain: another worker failed
				}
				if err := fn(gctx, stream, sg); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}(i)
	}
	for _, sg := range segs {
		ch <- sg
	}
	close(ch)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// copyRange moves [off, off+length) from src to dst in bufSize chunks,
// observing ctx and the bandwidth limiter between chunks. It returns
// the bytes written and reports each chunk through progress. The chunk
// buffer comes from the shared pool, so concurrent streams recycle a
// small working set instead of allocating one buffer each.
func copyRange(ctx context.Context, dst io.WriterAt, src io.ReaderAt, off, length int64, bufSize int, lim limiter, progress func(int64)) (int64, error) {
	bufp := bufpool.Get(bufSize)
	defer bufpool.Put(bufp)
	buf := *bufp
	var done int64
	for done < length {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		n := int64(len(buf))
		if length-done < n {
			n = length - done
		}
		if err := lim.wait(ctx, int(n)); err != nil {
			return done, err
		}
		rn, rerr := src.ReadAt(buf[:n], off+done)
		if rn > 0 {
			wn, werr := dst.WriteAt(buf[:rn], off+done)
			if wn > 0 {
				done += int64(wn)
				if progress != nil {
					progress(int64(wn))
				}
			}
			if werr != nil {
				return done, werr
			}
			if wn < rn {
				return done, io.ErrShortWrite
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				if done < length {
					// The source shrank under the plan.
					return done, fmt.Errorf("transfer: short read at %d: %w", off+done, io.ErrUnexpectedEOF)
				}
				return done, nil
			}
			return done, rerr
		}
	}
	return done, nil
}

// offload carries the per-transfer kernel-offload state: the optional
// RangeCopier capability of the destination FS, and a sticky flag that
// records the first ErrOffloadUnsupported so later segments skip the
// doomed probe. nil *offload (or a nil copier) means user-space only.
type offload struct {
	rc     storage.RangeCopier
	broken atomic.Bool
	// proven is set once a kernel copy has succeeded. Until then the
	// parallel segment streams probe one at a time under probeMu, so a
	// refusing pair is probed once per transfer, not once per stream.
	proven  atomic.Bool
	probeMu sync.Mutex
}

// newOffload probes dstFS for the kernel range-copy capability; the
// returned state is shared by all of one transfer's segment streams.
func newOffload(dstFS storage.FS, disabled bool) *offload {
	if disabled {
		return nil
	}
	rc, ok := dstFS.(storage.RangeCopier)
	if !ok {
		return nil
	}
	return &offload{rc: rc}
}

// active reports whether the offload path should still be probed.
func (o *offload) active() bool { return o != nil && !o.broken.Load() }

// copyWindow runs one kernel range copy, serialized with the other
// streams' copies until the first success proves the pair. A stream
// that waited behind a refused probe gets the refusal without a call.
func (o *offload) copyWindow(dst io.WriterAt, src io.ReaderAt, off, n int64) (int64, error) {
	if !o.proven.Load() {
		o.probeMu.Lock()
		defer o.probeMu.Unlock()
		if o.broken.Load() {
			return 0, storage.ErrOffloadUnsupported
		}
	}
	wn, err := o.rc.CopyRange(dst, off, src, off, n)
	switch {
	case err == nil:
		o.proven.Store(true)
	case errors.Is(err, storage.ErrOffloadUnsupported):
		// Trip the flag before the lock drops: a stream queued behind
		// this probe must see the refusal, not probe again.
		o.broken.Store(true)
	}
	return wn, err
}

// copyRangeOffload moves [off, off+length) from src to dst like
// copyRange, but through the kernel (copy_file_range/sendfile) so the
// bytes never enter user space. Throttled transfers offload in
// bufSize-sized pre-admitted windows — the limiter admits each window
// before the kernel moves it, so bandwidth caps meter offloaded bytes
// exactly as copied ones; unlimited transfers offload the whole range
// in one call. On ErrOffloadUnsupported the sticky flag trips and the
// remainder (current window included) is finished by the user-space
// loop, with progress and byte counts staying exact across the seam.
func copyRangeOffload(ctx context.Context, o *offload, dst io.WriterAt, src io.ReaderAt, off, length int64, bufSize int, lim limiter, progress func(int64)) (int64, error) {
	var done int64
	for done < length {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if !o.active() {
			n, err := copyRange(ctx, dst, src, off+done, length-done, bufSize, lim, progress)
			return done + n, err
		}
		// Probes (before the first success) are one window long too, so
		// the streams queued behind one wait for a window, not a segment.
		window := length - done
		if (!lim.unlimited() || !o.proven.Load()) && window > int64(bufSize) {
			window = int64(bufSize)
		}
		if err := lim.wait(ctx, int(window)); err != nil {
			return done, err
		}
		wn, err := o.copyWindow(dst, src, off+done, window)
		if wn > 0 {
			done += wn
			if progress != nil {
				progress(wn)
			}
		}
		if err != nil {
			if errors.Is(err, storage.ErrOffloadUnsupported) {
				// Fall back transparently: this destination (or this
				// src/dst pair) cannot be served in-kernel. The window
				// already admitted through the limiter is at most one
				// bufSize over-admission, paid back by the bucket's debt
				// model. copyWindow has tripped the sticky flag.
				continue
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return done, fmt.Errorf("transfer: short read at %d: %w", off+done, io.ErrUnexpectedEOF)
			}
			return done, err
		}
	}
	return done, nil
}

// Governor is a token-bucket bandwidth limiter shared by every transfer
// the daemon runs — the staging throttle of the paper's interference
// experiments (urd -max-bandwidth). The bucket allows a burst of up to
// a quarter-second of the configured rate, then admits bytes at rate.
// Writers run into debt rather than fragmenting chunks: a chunk larger
// than the remaining tokens is admitted immediately and the overdraft
// is paid off by subsequent waits, which keeps the long-run rate at the
// cap without requiring chunk <= burst.
//
// A nil *Governor is valid and unlimited, so callers never branch.
type Governor struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewGovernor returns a governor admitting bytesPerSec bytes per second
// (<=0 returns nil: unlimited).
func NewGovernor(bytesPerSec int64) *Governor {
	if bytesPerSec <= 0 {
		return nil
	}
	rate := float64(bytesPerSec)
	return &Governor{
		rate:   rate,
		burst:  rate / 4,
		tokens: rate / 4,
		last:   time.Now(),
	}
}

// Rate reports the configured cap in bytes per second (0 for a nil —
// unlimited — governor). The autotuner reads it to tell a
// governor-shaped plateau from a medium-shaped one.
func (g *Governor) Rate() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.rate)
}

// SetRate retunes the governor to bytesPerSec bytes per second without
// dropping accumulated debt: tokens accrue at the old rate up to now,
// then the bucket switches over — an overdraft incurred under the old
// cap is still paid off (at the new rate) before more bytes pass, and
// a positive balance is clamped to the new burst. bytesPerSec <= 0 is
// ignored (a live governor cannot become unlimited, and a nil governor
// stays nil); in-flight Waits sleeping off earlier debt finish their
// computed sleep, so the long-run rate converges on the new cap within
// one chunk.
func (g *Governor) SetRate(bytesPerSec int64) {
	if g == nil || bytesPerSec <= 0 {
		return
	}
	g.mu.Lock()
	now := time.Now()
	g.tokens += now.Sub(g.last).Seconds() * g.rate
	g.last = now
	g.rate = float64(bytesPerSec)
	g.burst = g.rate / 4
	if g.tokens > g.burst {
		g.tokens = g.burst
	}
	g.mu.Unlock()
}

// Wait blocks until n bytes may pass (or ctx is done). See Governor for
// the debt-based admission model.
func (g *Governor) Wait(ctx context.Context, n int) error {
	if g == nil || n <= 0 {
		return nil
	}
	g.mu.Lock()
	now := time.Now()
	g.tokens += now.Sub(g.last).Seconds() * g.rate
	if g.tokens > g.burst {
		g.tokens = g.burst
	}
	g.last = now
	g.tokens -= float64(n)
	debt := -g.tokens
	g.mu.Unlock()
	if debt <= 0 {
		return nil
	}
	wait := time.Duration(debt / g.rate * float64(time.Second))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// limiter chains the daemon-wide governor with a task's own cap.
type limiter struct {
	global *Governor
	task   *Governor
}

func (l limiter) wait(ctx context.Context, n int) error {
	if err := l.global.Wait(ctx, n); err != nil {
		return err
	}
	return l.task.Wait(ctx, n)
}

// unlimited reports whether no bandwidth cap applies on this transfer.
func (l limiter) unlimited() bool { return l.global == nil && l.task == nil }
