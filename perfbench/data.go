package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/urd"
)

// Sizes that make the data workloads do what they are for. The
// initiator's staging cache holds cacheSize bytes. stagein-cold cycles
// over coldFiles files (768 MiB, three times the cache), so LRU always
// evicts a file before its next use and the cache never serves a byte.
// workflow-warm shares warmInputs inputs (128 MiB, half the cache), so
// after set-up every stage-in is served from the cache.
const (
	fileSize   = 32 << 20
	cacheSize  = 256 << 20
	coldFiles  = 24
	warmInputs = 4
	// warmOutputs is the pool of local outputs workflow-warm stages out.
	warmOutputs = 4
	// keepSample is how many tasks per run keep their destination for
	// the post-window digest check, drawn from the first keepSpan.
	keepSample = 6
	keepSpan   = 32
)

// dataBench is the two-daemon system of the data workloads: a target
// node holding the shared inputs and receiving stage-outs, and an
// initiating compute node with the journal and the staging cache,
// joined by the ofi+tcp loopback fabric. Clients are nornsctl control
// connections, the path Slurm's stage-in and stage-out take.
type dataBench struct {
	seed   uint64
	dirs   map[string]string // dataspace ID → absolute mount
	target *urd.Daemon
	init   *urd.Daemon
	// ictl is the initiator's admin connection for the cache fill and
	// the counters read at the window boundaries; loads are the two
	// load clients.
	ictl    *nornsctl.Client
	loads   []*nornsctl.Client
	seq     atomic.Int64
	keep    map[int64]bool
	order   []int // stagein-cold: seeded file order
	warm    bool
	mu      sync.Mutex
	checked []keptCopy
}

// keptCopy is a destination kept for the post-window digest check.
type keptCopy struct {
	path string // absolute destination
	file string // source name, which encodes its generator stream
}

func setupStageInCold(dir string, seed uint64) (bench, error) {
	b, err := newDataBench(dir, seed, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x636f6c64))
	b.order = rng.Perm(coldFiles)
	for i := 0; i < coldFiles; i++ {
		if err := generate(filepath.Join(b.dirs["src://"], coldName(i)), seed); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func setupWorkflowWarm(dir string, seed uint64) (bench, error) {
	b, err := newDataBench(dir, seed, true)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmInputs; i++ {
		if err := generate(filepath.Join(b.dirs["src://"], inputName(i)), seed); err != nil {
			b.close()
			return nil, err
		}
	}
	for i := 0; i < warmOutputs; i++ {
		if err := generate(filepath.Join(b.dirs["out://"], outputName(i)), seed); err != nil {
			b.close()
			return nil, err
		}
	}
	// Fill the cache: one stage-in of every shared input.
	for i := 0; i < warmInputs; i++ {
		cs := stageIn(-1, inputName(i), "fill")
		id, err := b.ictl.Submit(task.Copy, cs.in, cs.out, 0, 0)
		var st nornsctl.Stats
		if err == nil {
			st, err = b.ictl.Wait(id, waitTimeout)
		}
		if err == nil && st.Status != task.Finished {
			err = fmt.Errorf("cache fill of %s ended %s: %s", inputName(i), st.Status, st.Err)
		}
		if err == nil {
			err = os.Remove(filepath.Join(b.dirs["dst://"], "fill"))
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

func newDataBench(dir string, seed uint64, warm bool) (*dataBench, error) {
	b := &dataBench{seed: seed, warm: warm, dirs: map[string]string{}}
	for _, ds := range []string{"src://", "sink://", "dst://", "out://"} {
		p, err := filepath.Abs(filepath.Join(dir, ds[:len(ds)-3]))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
		b.dirs[ds] = p
	}
	rng := rand.New(rand.NewPCG(seed, 0x6b656570))
	b.keep = map[int64]bool{}
	for len(b.keep) < keepSample {
		b.keep[int64(rng.IntN(keepSpan))] = true
	}

	resolver := urd.NewStaticResolver()
	var err error
	b.target, err = urd.New(urd.Config{
		NodeName:      "target",
		ControlSocket: filepath.Join(dir, "t.sock"),
		Fabric:        "ofi+tcp",
		FabricAddr:    "127.0.0.1:0",
		Resolver:      resolver,
	})
	if err != nil {
		return nil, err
	}
	b.init, err = urd.New(urd.Config{
		NodeName:      "init",
		ControlSocket: filepath.Join(dir, "i.sock"),
		Fabric:        "ofi+tcp",
		FabricAddr:    "127.0.0.1:0",
		Resolver:      resolver,
		StateDir:      filepath.Join(dir, "state"),
		CacheDir:      filepath.Join(dir, "cas"),
		CacheSize:     cacheSize,
	})
	if err != nil {
		b.target.Close()
		return nil, err
	}
	resolver.Set("target", b.target.FabricAddr())
	resolver.Set("init", b.init.FabricAddr())
	if err := b.register(dir); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *dataBench) register(dir string) error {
	tctl, err := nornsctl.Dial(filepath.Join(dir, "t.sock"))
	if err != nil {
		return err
	}
	defer tctl.Close()
	if b.ictl, err = nornsctl.Dial(filepath.Join(dir, "i.sock")); err != nil {
		return err
	}
	for ctl, ids := range map[*nornsctl.Client][]string{
		tctl:   {"src://", "sink://"},
		b.ictl: {"dst://", "out://"},
	} {
		for _, id := range ids {
			def := nornsctl.DataspaceDef{ID: id, Backend: nornsctl.BackendPosixDir, Mount: b.dirs[id]}
			if err := ctl.RegisterDataspace(def); err != nil {
				return fmt.Errorf("register %s: %w", id, err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		c, err := nornsctl.Dial(filepath.Join(dir, "i.sock"))
		if err != nil {
			return err
		}
		b.loads = append(b.loads, c)
	}
	return nil
}

func coldName(i int) string   { return fmt.Sprintf("cold%02d", i) }
func inputName(i int) string  { return fmt.Sprintf("in%d", i) }
func outputName(i int) string { return fmt.Sprintf("out%d", i) }

// generate writes fileSize seeded bytes to path. The stream depends on
// the seed and the file's base name only, so digest checks can
// regenerate it instead of trusting the source on disk.
func generate(path string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := io.CopyN(w, stream(seed, filepath.Base(path)), fileSize); err != nil {
		f.Close()
		return fmt.Errorf("generate %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("generate %s: %w", path, err)
	}
	return f.Close()
}

// stream is the seeded byte source of one file.
func stream(seed uint64, name string) io.Reader {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	copy(key[8:], name)
	return rand.NewChaCha8(key)
}

// copySpec is one staging task: a copy between two resources, the
// dataspace-relative destination that the benchmark later removes or
// checks, and the source name.
type copySpec struct {
	seq      int64
	in, out  task.Resource
	outSpace string
	outPath  string
	file     string
}

// stageIn pulls a target input to the initiator (remote → local).
func stageIn(seq int64, file, dst string) copySpec {
	return copySpec{
		seq:      seq,
		in:       task.RemotePosixPath("target", "src://", file),
		out:      task.PosixPath("dst://", dst),
		outSpace: "dst://", outPath: dst, file: file,
	}
}

// stageOut pushes a local output to the target (local → remote).
func stageOut(seq int64, file, dst string) copySpec {
	return copySpec{
		seq:      seq,
		in:       task.PosixPath("out://", file),
		out:      task.RemotePosixPath("target", "sink://", dst),
		outSpace: "sink://", outPath: dst, file: file,
	}
}

func (b *dataBench) clients() []loadFunc {
	loads := make([]loadFunc, len(b.loads))
	for i, c := range b.loads {
		next := b.coldNext
		if b.warm {
			next = b.warmNext(i)
		}
		loads[i] = func(ctx context.Context, win *window, st *clientStats, tr *tracer) {
			b.loop(ctx, c, next, win, st, tr)
		}
	}
	return loads
}

// coldNext takes the next file of the shared cycle, so the two clients
// together walk the seeded order and no file repeats within 24 tasks.
func (b *dataBench) coldNext(seq int64) copySpec {
	return stageIn(seq, coldName(b.order[seq%coldFiles]), fmt.Sprintf("d%d", seq))
}

// warmNext returns client i's task chooser: the client alternates
// stage-in of a shared input and stage-out of a pool output, starting
// with a seeded choice, and picks each file from its own seeded stream.
func (b *dataBench) warmNext(i int) func(int64) copySpec {
	rng := rand.New(rand.NewPCG(b.seed, uint64(i)+0x7761726d))
	in := rng.IntN(2) == 0
	return func(seq int64) copySpec {
		in = !in
		dst := fmt.Sprintf("w%d", seq)
		if in {
			return stageIn(seq, inputName(rng.IntN(warmInputs)), dst)
		}
		return stageOut(seq, outputName(rng.IntN(warmOutputs)), dst)
	}
}

// loop is one client's closed loop of copy tasks.
func (b *dataBench) loop(ctx context.Context, c *nornsctl.Client, next func(int64) copySpec, win *window, st *clientStats, tr *tracer) {
	for ctx.Err() == nil {
		root := tr.newID()
		t0 := time.Now()
		id := b.copy(c, next(b.seq.Add(1)-1), t0, win, st, tr, root)
		tr.record(root, 0, "nornsctl.task", id, t0, time.Now())
	}
}

// copy submits one copy, waits for it, checks it, and removes its
// destination or keeps it for the digest check. The root span around
// it includes the removal, which is the client's own work.
func (b *dataBench) copy(c *nornsctl.Client, cs copySpec, t0 time.Time, win *window, st *clientStats, tr *tracer, root uint64) uint64 {
	id, err := c.Submit(task.Copy, cs.in, cs.out, 0, 0)
	t1 := time.Now()
	st.attempted++
	if err != nil {
		st.failed++
		if !refused(err) {
			st.problem("submit %s: %v", cs.file, err)
		}
		return 0
	}
	s, err := c.Wait(id, waitTimeout)
	t2 := time.Now()
	tr.record(0, root, "nornsctl.submit", id, t0, t1)
	tr.record(0, root, "nornsctl.wait", id, t1, t2)
	if err != nil {
		st.failed++
		st.problem("task %d (%s): wait: %v", id, cs.file, err)
		return id
	}
	if s.Status != task.Finished {
		st.failed++
		st.problem("task %d (%s) ended %s: %s", id, cs.file, s.Status, s.Err)
		return id
	}
	if s.TotalBytes != fileSize || s.MovedBytes+s.DeltaBytes != s.TotalBytes {
		st.problem("task %d (%s): total %d moved %d delta %d, want total %d = moved + delta",
			id, cs.file, s.TotalBytes, s.MovedBytes, s.DeltaBytes, int64(fileSize))
	}
	win.credit(st, t0, t2)
	if k := win.sliceOf(t2); k >= 0 {
		st.tasks++
		st.fabricBytes += s.MovedBytes - s.CacheBytes
		st.cacheBytes += s.CacheBytes
		st.retries += int64(s.Attempts)
		st.lat[k].addDuration(t2.Sub(t0), time.Millisecond)
		st.taskMiBs.add(mibPerSecond(s.TotalBytes, t2.Sub(t0)))
	}
	dst := filepath.Join(b.dirs[cs.outSpace], cs.outPath)
	if b.keep[cs.seq] {
		b.mu.Lock()
		b.checked = append(b.checked, keptCopy{path: dst, file: cs.file})
		b.mu.Unlock()
	} else if err := os.Remove(dst); err != nil {
		st.problem("task %d: remove destination: %v", id, err)
	}
	return id
}

// settle fsyncs the generated sources and outputs.
func (b *dataBench) settle() error {
	for _, ds := range []string{"src://", "out://"} {
		entries, err := os.ReadDir(b.dirs[ds])
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := syncFile(filepath.Join(b.dirs[ds], e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	return f.Close()
}

func (b *dataBench) pendingTasks() int { return b.init.PendingTasks() }

func (b *dataBench) counters() (counters, error) {
	s, err := b.ictl.StatusInfo()
	if err != nil {
		return counters{}, err
	}
	c := counters{
		statusPolls:    b.init.StatusPolls(),
		cacheHits:      s.CacheHits,
		cacheMisses:    s.CacheMisses,
		cacheEvictions: s.CacheEvictions,
	}
	for _, br := range s.Breakers {
		c.breakerTrips += br.Trips
	}
	return c, nil
}

// verify compares the SHA-256 of every kept destination with that of
// its regenerated source stream.
func (b *dataBench) verify() []string {
	var problems []string
	if len(b.checked) == 0 {
		problems = append(problems, "no destination was kept for the digest check")
	}
	for _, k := range b.checked {
		want := sha256.New()
		if _, err := io.CopyN(want, stream(b.seed, k.file), fileSize); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		got, err := fileDigest(k.path)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !bytes.Equal(got, want.Sum(nil)) {
			problems = append(problems, fmt.Sprintf("%s: SHA-256 differs from source %s", k.path, k.file))
		}
	}
	return problems
}

func fileDigest(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return h.Sum(nil), nil
}

func (b *dataBench) close() {
	for _, c := range append(b.loads, b.ictl) {
		if c != nil {
			c.Close()
		}
	}
	if b.init != nil {
		b.init.Close()
	}
	if b.target != nil {
		b.target.Close()
	}
}
