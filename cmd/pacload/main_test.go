package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFollowResumesWithLastEventID: a stream cut after two events is
// resumed with Last-Event-ID set to the last ID seen, and followJob
// prints every progress line and the done payload exactly once.
func TestFollowResumesWithLastEventID(t *testing.T) {
	progress := []string{"ran GS PAC", "checkpoint at cycle 3000", "resumed GS PAC from checkpoint", "ran GS PAC again"}
	var (
		mu      sync.Mutex
		lastIDs []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/w0-j000001/events" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		lastIDs = append(lastIDs, r.Header.Get("Last-Event-ID"))
		first := len(lastIDs) == 1
		mu.Unlock()
		// Replay from the event after Last-Event-ID, as the server's
		// retention ring does; a client that resent nothing would see
		// every line again.
		from := 0
		if id, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil {
			from = id
		}
		w.Header().Set("Content-Type", "text/event-stream")
		for i := from; i < len(progress); i++ {
			if first && i == 2 {
				return // cut the first connection after two events
			}
			fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", i+1, progress[i])
		}
		fmt.Fprint(w, "event: done\ndata: {\"status\": \"done\"}\n\n")
	}))
	defer srv.Close()

	var out strings.Builder
	if err := followJob(srv.URL, "w0-j000001", &out, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lastIDs) != 2 || lastIDs[0] != "" || lastIDs[1] != "2" {
		t.Errorf("Last-Event-ID per connection = %q, want [\"\" \"2\"]", lastIDs)
	}
	want := strings.Join(append(progress, `{"status": "done"}`), "\n") + "\n"
	if got := out.String(); got != want {
		t.Errorf("followed output:\n%s\nwant:\n%s", got, want)
	}
}
