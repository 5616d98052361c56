package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gbmqo"
)

func TestParseSchema(t *testing.T) {
	defs, err := parseSchema("a:int, b:string,c:float,d:date,e:bigint")
	if err != nil {
		t.Fatal(err)
	}
	want := []gbmqo.ColumnDef{
		{Name: "a", Typ: gbmqo.Int64},
		{Name: "b", Typ: gbmqo.String},
		{Name: "c", Typ: gbmqo.Float64},
		{Name: "d", Typ: gbmqo.Date},
		{Name: "e", Typ: gbmqo.Int64},
	}
	if len(defs) != len(want) {
		t.Fatalf("defs = %v", defs)
	}
	for i := range want {
		if defs[i] != want[i] {
			t.Fatalf("def %d = %v, want %v", i, defs[i], want[i])
		}
	}
}

func TestParseSchemaErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "a:blob", "a:int,b"} {
		if _, err := parseSchema(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestServeGracefulDrain sends a real SIGTERM to a loaded server and asserts
// runServe drains and returns nil (exit 0): in-flight HTTP requests finish,
// the scheduler refuses new work afterwards, and nothing is left listening.
func TestServeGracefulDrain(t *testing.T) {
	db := gbmqo.Open(nil)
	tbl, err := gbmqo.GenerateDataset("sales", 3000, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.Register(tbl)
	db.StartBatching(gbmqo.BatchOptions{
		Exec: gbmqo.QueryOptions{SharedScan: true, Parallel: true, MaxAttempts: 3},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() { done <- runServe(db, ln, sig, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	// Wait until the server answers health checks.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Load it: concurrent queries in flight while the signal lands.
	cols := []string{tbl.Col(0).Name(), tbl.Col(1).Name()}
	var served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{
				"table":   "sales",
				"queries": []map[string]any{{"cols": []string{cols[i%2]}}},
			})
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					served.Add(1)
				}
			}
		}(i)
	}

	// Let the load actually land before killing: the signal should find the
	// server mid-traffic, with later requests still in flight.
	for served.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no query succeeded before SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe = %v, want nil after SIGTERM drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("runServe did not exit after SIGTERM")
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was served around the drain")
	}

	// The drained scheduler refuses new work instead of silently restarting.
	if _, _, err := db.Submit(context.Background(), "sales", gbmqo.GroupQuery{Cols: cols[:1]}); err == nil {
		t.Fatal("Submit after drain succeeded, want ErrBatcherClosed")
	}
	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
