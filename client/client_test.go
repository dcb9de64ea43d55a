package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
)

func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.PoolInterval == 0 {
		cfg.PoolInterval = time.Millisecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestInFlightMultiplexing drives many goroutines over a deliberately tiny
// pool, so requests must interleave on shared connections and responses must
// find their way back by request id.
func TestInFlightMultiplexing(t *testing.T) {
	key := auditreg.KeyFromSeed(21)
	_, addr := startServer(t, server.Config{Key: key, Readers: 16})
	cl, err := client.Dial(addr, client.WithConns(2))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const goroutines = 16
	objs := make([]*client.Object, goroutines)
	for g := range objs {
		objs[g], err = cl.Open(fmt.Sprintf("own-%02d", g), store.Register)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obj := objs[g]
			// Each goroutine owns its object and reader index, so every
			// read has one deterministic expected value even though all
			// traffic shares two connections.
			for i := 0; i < 50; i++ {
				want := uint64(g)<<32 | uint64(i)
				if err := obj.Write(want); err != nil {
					t.Errorf("g%d Write: %v", g, err)
					return
				}
				got, err := obj.Read(g)
				if err != nil {
					t.Errorf("g%d Read: %v", g, err)
					return
				}
				if got != want {
					t.Errorf("g%d read %#x, want %#x", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAuditorRequiresKey(t *testing.T) {
	key := auditreg.KeyFromSeed(22)
	_, addr := startServer(t, server.Config{Key: key})
	keyless, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer keyless.Close()
	obj, err := keyless.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := obj.Auditor(); err == nil {
		t.Fatal("Auditor succeeded without the store key")
	}

	// A wrong key unmasks to garbage, not to the true report: the audit
	// stays confidential against key-guessing readers. (Garbage can still
	// contain any individual pair by chance — a random 64-bit mask sets
	// each reader bit with probability 1/2 — so the assertion compares
	// whole reports, not single pairs.)
	if err := obj.Write(0xfeed); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := obj.Read(0); err != nil {
		t.Fatalf("Read: %v", err)
	}
	wrong, err := client.Dial(addr, client.WithConns(1), client.WithKey(auditreg.KeyFromSeed(23)))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer wrong.Close()
	wobj, err := wrong.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	waud, err := wobj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	wrep, err := waud.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}

	right, err := client.Dial(addr, client.WithConns(1), client.WithKey(key))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer right.Close()
	robj, err := right.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	raud, err := robj.Auditor()
	if err != nil {
		t.Fatalf("Auditor: %v", err)
	}
	rrep, err := raud.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rrep.Report.Contains(0, 0xfeed) {
		t.Fatalf("right key missed the audit pair: %v", rrep.Report)
	}
	if wrep.Report.Equal(rrep.Report) {
		t.Fatal("wrong key still recovered the true audit report")
	}
}

func TestOpenValidation(t *testing.T) {
	key := auditreg.KeyFromSeed(24)
	_, addr := startServer(t, server.Config{Key: key})
	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Open("snap", store.Snapshot); err == nil {
		t.Fatal("Open(Snapshot) succeeded remotely")
	}
	if _, err := cl.Open("obj", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := cl.Open("obj", store.MaxRegister); !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("kind mismatch err = %v", err)
	}
	// Overlong names are rejected before hitting the wire.
	if _, err := cl.Open(strings.Repeat("n", 5000), store.Register); err == nil {
		t.Fatal("overlong name accepted")
	}
	obj, _ := cl.Open("obj", store.Register)
	if _, err := obj.Read(-1); err == nil {
		t.Fatal("Read(-1) succeeded")
	}
	if _, err := obj.Read(obj.Readers()); err == nil {
		t.Fatal("Read(m) succeeded")
	}
	if _, err := obj.Reader(obj.Readers()); err == nil {
		t.Fatal("Reader(m) succeeded")
	}
}

// TestReconnectAfterServerRestart pins that a dead pool connection is
// replaced on next use: a client that outlives a server restart keeps
// working instead of permanently failing 1/nconns of its requests.
func TestReconnectAfterServerRestart(t *testing.T) {
	key := auditreg.KeyFromSeed(26)
	newSrv := func(addr string) (*server.Server, chan error) {
		srv, err := server.New(server.Config{Key: key, PoolInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		return srv, done
	}
	srv1, done1 := newSrv("127.0.0.1:0")
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		if a := srv1.Addr(); a != nil {
			addr = a.String()
		} else {
			time.Sleep(time.Millisecond)
		}
	}

	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	obj, err := cl.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(1); err != nil {
		t.Fatalf("Write: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	cancel()
	if err := <-done1; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Same address, fresh server (fresh store: the object must be
	// re-created through the lazy re-open on the replacement connection).
	srv2, done2 := newSrv(addr)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done2; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	// The first attempts may ride the dying connection; the pool must
	// recover within a few picks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := obj.Write(2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	v, err := obj.Read(0)
	if err != nil {
		t.Fatalf("Read after restart: %v", err)
	}
	if v != 2 {
		t.Fatalf("Read after restart = %d, want 2", v)
	}
}

func TestCloseFailsPendingAndFutureRequests(t *testing.T) {
	key := auditreg.KeyFromSeed(25)
	_, addr := startServer(t, server.Config{Key: key})
	cl, err := client.Dial(addr, client.WithConns(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	obj, err := cl.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cl.Close()
	if err := obj.Write(1); err == nil {
		t.Fatal("Write succeeded on a closed client")
	}
	if _, err := cl.Stats(); err == nil {
		t.Fatal("Stats succeeded on a closed client")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
