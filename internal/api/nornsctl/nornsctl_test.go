package nornsctl_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ngioproject/norns-go/internal/api/apierr"
	"github.com/ngioproject/norns-go/internal/api/nornsctl"
	"github.com/ngioproject/norns-go/internal/task"
	"github.com/ngioproject/norns-go/internal/urd"
)

func harness(t *testing.T) *nornsctl.Client {
	t.Helper()
	dir := t.TempDir()
	d, err := urd.New(urd.Config{
		NodeName:      "ctltest",
		ControlSocket: filepath.Join(dir, "c.sock"),
		Workers:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c, err := nornsctl.Dial(filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingStatus(t *testing.T) {
	c := harness(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	s, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "ctltest") || !strings.Contains(s, "policy=fcfs") {
		t.Fatalf("status = %q", s)
	}
}

func TestDataspaceManagement(t *testing.T) {
	c := harness(t)
	def := nornsctl.DataspaceDef{ID: "nvme0://", Backend: nornsctl.BackendNVM, Capacity: 1 << 30}
	if err := c.RegisterDataspace(def); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDataspace(def); err == nil {
		t.Fatal("duplicate register accepted")
	}
	if err := c.UpdateDataspace(def); err != nil {
		t.Fatal(err)
	}
	if err := c.TrackDataspace("nvme0://", true); err != nil {
		t.Fatal(err)
	}
	ids, err := c.TrackedNonEmpty()
	if err != nil || len(ids) != 0 {
		t.Fatalf("TrackedNonEmpty = %v, %v", ids, err)
	}
	if err := c.UnregisterDataspace("nvme0://"); err != nil {
		t.Fatal(err)
	}
}

func TestJobAndProcessManagement(t *testing.T) {
	c := harness(t)
	def := nornsctl.JobDef{ID: 9, Hosts: []string{"ctltest"},
		Limits: []nornsctl.JobLimit{{Dataspace: "x://", Quota: 5}}}
	if err := c.RegisterJob(def); err != nil {
		t.Fatal(err)
	}
	def.Hosts = append(def.Hosts, "other")
	if err := c.UpdateJob(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddProcess(9, nornsctl.ProcDef{PID: 4242}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveProcess(9, nornsctl.ProcDef{PID: 4242}); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterJob(9); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterJob(9); err == nil {
		t.Fatal("double unregister accepted")
	}
}

func TestAdminTaskSubmitWaitStatus(t *testing.T) {
	c := harness(t)
	if err := c.RegisterDataspace(nornsctl.DataspaceDef{ID: "m://", Backend: nornsctl.BackendMemory}); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(task.Copy, task.MemoryRegion([]byte("admin staged")), task.PosixPath("m://", "f"), 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != task.Finished || st.MovedBytes != 12 {
		t.Fatalf("stats = %+v", st)
	}
	ts, err := c.TaskStatus(id)
	if err != nil || ts.Status != task.Finished {
		t.Fatalf("TaskStatus = %+v, %v", ts, err)
	}
}

func TestWaitUnknownTask(t *testing.T) {
	c := harness(t)
	if _, err := c.Wait(99999, 10*time.Millisecond); err == nil {
		t.Fatal("wait on unknown task succeeded")
	}
}

func TestTransferStatsReporting(t *testing.T) {
	c := harness(t)
	if err := c.RegisterDataspace(nornsctl.DataspaceDef{ID: "m://", Backend: nornsctl.BackendMemory}); err != nil {
		t.Fatal(err)
	}
	m, err := c.TransferStats()
	if err != nil {
		t.Fatal(err)
	}
	if m.Samples != 0 || m.Finished != 0 {
		t.Fatalf("fresh daemon metrics = %+v", m)
	}
	id, err := c.Submit(task.Copy, task.MemoryRegion(make([]byte, 64<<10)), task.PosixPath("m://", "f"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err = c.TransferStats()
	if err != nil {
		t.Fatal(err)
	}
	if m.Finished != 1 || m.MovedBytes != 64<<10 || m.Samples != 1 {
		t.Fatalf("metrics after transfer = %+v", m)
	}
	if m.BandwidthBps <= 0 {
		t.Fatalf("bandwidth = %v", m.BandwidthBps)
	}
}

func TestShutdownStopsDaemon(t *testing.T) {
	dir := t.TempDir()
	d, err := urd.New(urd.Config{NodeName: "s", ControlSocket: filepath.Join(dir, "c.sock"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := nornsctl.Dial(filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Subsequent calls must fail once the daemon is down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Ping(); err != nil {
			return // connection dropped, daemon is gone
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon still responding after shutdown")
}

// TestErrTimeoutSentinel: a Wait that times out returns an error that
// matches both sentinels and is retryable. The bandwidth cap (4 MiB/s,
// 1 MiB burst) keeps the 4 MiB task running well past the 1 ns wait.
func TestErrTimeoutSentinel(t *testing.T) {
	dir := t.TempDir()
	d, err := urd.New(urd.Config{
		NodeName: "ctltest", ControlSocket: filepath.Join(dir, "c.sock"),
		Workers: 1, MaxBandwidthBps: 4 << 20, BufSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c, err := nornsctl.Dial(filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterDataspace(nornsctl.DataspaceDef{ID: "m://", Backend: nornsctl.BackendMemory}); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(task.Copy, task.MemoryRegion(make([]byte, 4<<20)), task.PosixPath("m://", "f"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Wait(id, time.Nanosecond)
	if !errors.Is(err, nornsctl.ErrTimeout) || !errors.Is(err, apierr.ErrTimeout) || !apierr.IsRetryable(err) {
		t.Fatalf("Wait(1ns) = %v, want a retryable ErrTimeout", err)
	}
	if st, err := c.Wait(id, 30*time.Second); err != nil || st.Status != task.Finished {
		t.Fatalf("Wait = %+v, %v", st, err)
	}
}
