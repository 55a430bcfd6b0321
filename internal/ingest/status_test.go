package ingest

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestRestoredSourceStatusJSON pins the /api/sources/{id}/status bytes
// of a source restored from the committed three-detector fixture: the
// per-detector mirrors are seeded from the restored set, so kind, phase,
// jumps and recalibrations must read back exactly as the set left them.
func TestRestoredSourceStatusJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "detect", "testdata", "set_history_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Registry: Config{
		Shards:  2,
		Restore: map[string][]byte{"fixture": blob},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Registry().Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sources/fixture/status", nil))
	const want = `{"id":"fixture","shard":0,"samples":500,"jumps":3,"phase":"crash-imminent","last_free":0,"last_swap":0,"stalled":false,"last_seen":"0001-01-01T00:00:00Z","detectors":[{"kind":"holder","phase":"crash-imminent","jumps":3},{"kind":"entropy","phase":"healthy","jumps":0},{"kind":"adaptive","phase":"healthy","jumps":0,"recalibrations":14}]}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("status JSON changed:\n got %s\nwant %s", got, want)
	}
}
