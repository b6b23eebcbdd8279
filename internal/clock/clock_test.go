package clock

import (
	"testing"
	"time"
)

// Mono never runs backwards and keeps pace with elapsed time.
func TestMonoAdvances(t *testing.T) {
	start, t0 := Mono(), time.Now()
	prev := start
	for i := 0; i < 1000; i++ {
		now := Mono()
		if now < prev {
			t.Fatalf("Mono went back from %d to %d", prev, now)
		}
		prev = now
	}
	time.Sleep(5 * time.Millisecond)
	elapsed, took := Mono()-start, time.Since(t0)
	if elapsed < int64(5*time.Millisecond) || elapsed > int64(took)+int64(time.Millisecond) {
		t.Fatalf("Mono advanced %v over a %v sleep", time.Duration(elapsed), took)
	}
}

func BenchmarkMono(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += Mono()
	}
	_ = sink
}
