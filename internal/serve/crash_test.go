// Crash recovery proven with real processes: the parent test spawns its
// own test binary as a checkpointing server, replays a trace against it
// through a keyed session, kills the server with SIGKILL mid-replay,
// restarts it on the same address and state directory, reopens the key
// and requires the resumed replay to finish with tallies bit-identical
// to an uninterrupted offline run — the durability acceptance pin of the
// serve layer.
package serve

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	crashChildEnv = "TAGE_SERVE_CRASH_CHILD"
	crashAddrEnv  = "TAGE_SERVE_CRASH_ADDR"
	crashStateEnv = "TAGE_SERVE_CRASH_STATE"
)

// TestCrashRecoveryChild is not a test of its own: it is the server
// process body the kill-9 test re-executes. Without the env gate it
// skips immediately.
func TestCrashRecoveryChild(t *testing.T) {
	if os.Getenv(crashChildEnv) == "" {
		t.Skip("crash-recovery child process body; driven by TestCrashRecovery")
	}
	srv := NewServer(Config{
		StateDir:           os.Getenv(crashStateEnv),
		CheckpointInterval: 20 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", os.Getenv(crashAddrEnv))
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	// Serves until the parent kills the process.
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("child serve: %v", err)
	}
}

// startCrashChild re-executes the test binary as a server process.
func startCrashChild(t *testing.T, addr, stateDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecoveryChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashAddrEnv+"="+addr,
		crashStateEnv+"="+stateDir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning server process: %v", err)
	}
	return cmd
}

// waitServing polls until a TCP dial to addr succeeds.
func waitServing(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never came up: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCrashRecovery(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("inside child process")
	}
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	stateDir := t.TempDir()
	// Reserve an ephemeral port, then release it for the child. The tiny
	// window between Close and the child's Listen is racy in principle;
	// in practice nothing else grabs a just-released ephemeral port.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	child := startCrashChild(t, addr, stateDir)
	childDone := false
	defer func() {
		if !childDone {
			child.Process.Kill()
			child.Wait()
		}
	}()
	waitServing(t, addr, 15*time.Second)

	const (
		limit     = 600_000
		batchSize = 256
		spec      = "tage-16K?mode=probabilistic"
		key       = "crash/INT-2"
	)
	tr, err := workload.ByName("INT-2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClientConfig{DialTimeout: time.Second, ReadTimeout: 10 * time.Second, WriteTimeout: 10 * time.Second}
	req := OpenRequest{Spec: spec, Key: key}
	c, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Replay(tr, limit, batchSize, nil)
		done <- err
	}()

	// SIGKILL the server as soon as its checkpoint loop has written the
	// session at least once.
	deadline := time.Now().Add(30 * time.Second)
	for {
		entries, err := os.ReadDir(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".ckpt") {
				found = true
			}
		}
		if found {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("replay finished before any checkpoint landed (err=%v)", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared in %s", stateDir)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	child.Wait() // reap; exit status of a SIGKILLed process is expected noise
	childDone = true
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("replay finished before the kill -9 landed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not fail after the kill -9")
	}

	// Restart on the same address and state directory, reopen the key:
	// the session resumes from the restored checkpoint, and Replay
	// rewinds its trace cursor and replays the tail the crash swallowed.
	child2 := startCrashChild(t, addr, stateDir)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	waitServing(t, addr, 15*time.Second)
	c2, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sess2, err := c2.OpenSession(req)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Resumed() == 0 {
		t.Fatal("reopened key resumed at branch 0 despite a checkpoint on disk")
	}
	res, err := sess2.Replay(tr, limit, batchSize, nil)
	if err != nil {
		t.Fatalf("replay across crash: %v", err)
	}
	sp, err := predictor.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := sim.RunSpec(sp, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	if res != offline {
		t.Errorf("crash-recovered replay %+v != offline %+v", res, offline)
	}
	// The state directory still holds the (consumed-on-close) bookkeeping:
	// a successful Replay closed the session, deleting its checkpoint.
	if entries, err := os.ReadDir(stateDir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".ckpt") {
				t.Errorf("checkpoint %s survived the session close", filepath.Join(stateDir, e.Name()))
			}
		}
	}
}
