package search

import (
	"runtime"
	"testing"
	"time"

	"factcheck/internal/verbalize"
)

// TestDroppedEngineIsCollected checks that an engine that has searched is
// freed by the first garbage collection after its owner drops it: nothing
// it pooled while searching keeps it reachable.
func TestDroppedEngineIsCollected(t *testing.T) {
	freed := make(chan struct{})
	func() {
		e, d := fixture(t)
		f := d.Facts[0]
		if _, err := e.Search(f.ID, verbalize.Sentence(f), 10); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(e, func(*Engine) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a dropped engine survived a garbage collection")
	}
}
