package sim

import (
	"testing"
	"time"
)

// BenchmarkProcSwitch measures one process switch pair: a process sleeps,
// the kernel pops its wake event and resumes it. One op is one Sleep.
func BenchmarkProcSwitch(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkSchedule measures a bare kernel event: one After push and one pop
// on a heap holding scheduleDepth pending events. One op is one event.
func BenchmarkSchedule(b *testing.B) {
	const scheduleDepth = 1024
	s := New(1)
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			s.After(scheduleDepth, tick)
		}
	}
	for i := 0; i < scheduleDepth; i++ {
		s.At(time.Duration(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkGetTimeout measures a call-style wait: a getter waits in
// GetTimeout with a 120 s timeout and a putter delivers 1 µs later, long
// before the timeout. One op is one delivered GetTimeout.
func BenchmarkGetTimeout(b *testing.B) {
	s := New(1)
	q := s.NewQueue(0)
	s.Spawn("getter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.GetTimeout(p, 120*time.Second)
		}
	})
	var boxed any = 42
	s.Spawn("putter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
			q.Put(p, boxed)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
