package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	end := s.Run()
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if end != 5*time.Millisecond {
		t.Fatalf("sim ended at %v, want 5ms", end)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Microsecond)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	s := New(1)
	done := 0
	s.Spawn("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			s.Spawn("child", func(c *Proc) {
				c.Sleep(time.Millisecond)
				done++
			})
		}
		p.Sleep(2 * time.Millisecond)
		done++
	})
	s.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
}

func TestAfterCallbackOrdering(t *testing.T) {
	s := New(1)
	var seen []string
	s.After(2*time.Millisecond, func() { seen = append(seen, "b") })
	s.After(time.Millisecond, func() { seen = append(seen, "a") })
	s.After(2*time.Millisecond, func() { seen = append(seen, "c") })
	s.Run()
	if fmt.Sprint(seen) != "[a b c]" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	fired := false
	s.After(10*time.Millisecond, func() { fired = true })
	end := s.RunUntil(5 * time.Millisecond)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if end != 5*time.Millisecond {
		t.Fatalf("end = %v", end)
	}
	s.RunUntil(20 * time.Millisecond)
	if !fired {
		t.Fatal("event not fired after horizon extended")
	}
}

// runPanic runs fn and returns the string it panicked with ("" if none).
func runPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("bystander", func(p *Proc) { p.Sleep(time.Second) })
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		panic("kaboom")
	})
	msg := runPanic(func() { s.Run() })
	want := "sim: process panic at t=3ms in boom: kaboom"
	if msg != want {
		t.Fatalf("panic = %q, want %q", msg, want)
	}
}

func TestShardedProcPanicReraised(t *testing.T) {
	ss := NewSharded(1, 2, time.Millisecond)
	defer ss.Close()
	ss.Shard(1).Sim().Spawn("shard-boom", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		panic("kaboom")
	})
	msg := runPanic(func() { ss.Run() })
	want := "sim: process panic at t=2ms in shard-boom: kaboom"
	if msg != want {
		t.Fatalf("panic = %q, want %q", msg, want)
	}
}

func TestBlockedProcessDoesNotWedgeRun(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	s.Spawn("stuck", func(p *Proc) { q.Get(p) })
	finished := false
	s.Spawn("finisher", func(p *Proc) {
		p.Sleep(time.Millisecond)
		finished = true
	})
	if end := s.Run(); end != time.Millisecond {
		t.Fatalf("Run ended at %v, want 1ms", end)
	}
	if !finished {
		t.Fatal("finisher did not run")
	}
	if s.Live() != 1 {
		t.Fatalf("Live() = %d, want 1 (the blocked process)", s.Live())
	}
}

func TestProcSwitchAllocatesNothing(t *testing.T) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	step := func() { s.RunUntil(s.Now() + time.Microsecond) }
	for i := 0; i < 100; i++ {
		step() // warm: grow the event heap to its steady size
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Sleep/wake switch allocates %v per op, want 0", allocs)
	}
}

func TestQueueBasicFIFO(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(time.Microsecond)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v not FIFO", got)
		}
	}
}

func TestQueueBlockingGetWakesOnPut(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	var at time.Duration
	s.Spawn("getter", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok || v.(string) != "x" {
			t.Errorf("get = %v,%v", v, ok)
		}
		at = p.Now()
	})
	s.Spawn("putter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		q.Put(p, "x")
	})
	s.Run()
	if at != 3*time.Millisecond {
		t.Fatalf("getter woke at %v", at)
	}
}

func TestQueueBoundedBlocksPutter(t *testing.T) {
	s := New(1)
	q := s.NewQueue(1)
	var putDone time.Duration
	s.Spawn("putter", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2) // must block until the getter drains
		putDone = p.Now()
	})
	s.Spawn("getter", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		q.Get(p)
	})
	s.Run()
	if putDone != 4*time.Millisecond {
		t.Fatalf("second put completed at %v, want 4ms", putDone)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	var timedOut bool
	var at time.Duration
	s.Spawn("getter", func(p *Proc) {
		_, _, timedOut = q.GetTimeout(p, 2*time.Millisecond)
		at = p.Now()
	})
	s.Run()
	if !timedOut || at != 2*time.Millisecond {
		t.Fatalf("timedOut=%v at=%v", timedOut, at)
	}
}

func TestQueueGetTimeoutDeliveryWins(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	var v any
	var timedOut bool
	s.Spawn("getter", func(p *Proc) {
		v, _, timedOut = q.GetTimeout(p, 10*time.Millisecond)
	})
	s.Spawn("putter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Put(p, 42)
	})
	end := s.Run()
	if timedOut || v.(int) != 42 {
		t.Fatalf("v=%v timedOut=%v", v, timedOut)
	}
	// The stale timeout event still fires at 10ms but must be a no-op.
	if end != 10*time.Millisecond {
		t.Fatalf("end=%v", end)
	}
}

func TestQueueCloseWakesGetters(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	oks := []bool{}
	for i := 0; i < 3; i++ {
		s.Spawn("getter", func(p *Proc) {
			_, ok := q.Get(p)
			oks = append(oks, ok)
		})
	}
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	s.Run()
	if len(oks) != 3 {
		t.Fatalf("oks=%v", oks)
	}
	for _, ok := range oks {
		if ok {
			t.Fatalf("expected ok=false after close, got %v", oks)
		}
	}
}

func TestQueueCloseDrainsBufferFirst(t *testing.T) {
	s := New(1)
	q := s.NewQueue(0)
	var got []any
	s.Spawn("p", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Close()
		for {
			v, ok := q.Get(p)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	s.Run()
	if len(got) != 2 {
		t.Fatalf("got=%v, want buffered values delivered before close", got)
	}
}

func TestResourceContention(t *testing.T) {
	s := New(1)
	r := s.NewResource(2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	if len(finish) != 4 {
		t.Fatalf("finish=%v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish=%v want=%v", finish, want)
		}
	}
}

func TestResourceFIFOGranting(t *testing.T) {
	s := New(1)
	r := s.NewResource(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(time.Millisecond)
			order = append(order, i)
			r.Release(1)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order=%v not FIFO", order)
		}
	}
}

func TestResourceOverRelease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	s := New(1)
	r := s.NewResource(1)
	s.Spawn("w", func(p *Proc) { r.Release(1) })
	s.Run()
}

// TestDeterminism runs an irregular workload twice and requires identical
// traces — the core guarantee every experiment in this repo relies on.
func TestDeterminism(t *testing.T) {
	runOnce := func() string {
		s := New(42)
		q := s.NewQueue(3)
		r := s.NewResource(2)
		trace := ""
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
					r.Use(p, d)
					q.Put(p, i*10+j)
					if v, ok := q.TryGet(); ok {
						trace += fmt.Sprintf("%d@%v;", v, p.Now())
					}
				}
			})
		}
		s.Run()
		return trace
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("nondeterministic traces:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty trace")
	}
}

// Property: for any set of sleep durations, processes finish in sorted order
// of duration (stable for ties by spawn order).
func TestPropertySleepOrdering(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 || len(ds) > 50 {
			return true
		}
		s := New(7)
		type fin struct {
			idx int
			at  time.Duration
		}
		var fins []fin
		for i, d := range ds {
			i, d := i, d
			s.Spawn("p", func(p *Proc) {
				p.Sleep(time.Duration(d) * time.Microsecond)
				fins = append(fins, fin{i, p.Now()})
			})
		}
		s.Run()
		if len(fins) != len(ds) {
			return false
		}
		for k := 1; k < len(fins); k++ {
			if fins[k].at < fins[k-1].at {
				return false
			}
			if fins[k].at == fins[k-1].at && fins[k].idx < fins[k-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bounded queue never holds more than its capacity, and every
// value put is eventually got exactly once.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(capacity uint8, nvals uint8) bool {
		c := int(capacity%8) + 1
		n := int(nvals%64) + 1
		s := New(11)
		q := s.NewQueue(c)
		seen := map[int]int{}
		maxLen := 0
		s.Spawn("prod", func(p *Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
				if q.Len() > maxLen {
					maxLen = q.Len()
				}
			}
			q.Close()
		})
		s.Spawn("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				seen[v.(int)]++
				p.Sleep(time.Microsecond)
			}
		})
		s.Run()
		if maxLen > c {
			return false
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	s := New(3)
	const n = 2000
	done := 0
	q := s.NewQueue(0)
	for i := 0; i < n; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(s.Rand().Intn(100)) * time.Microsecond)
			q.Put(p, 1)
		})
	}
	s.Spawn("collector", func(p *Proc) {
		for done < n {
			q.Get(p)
			done++
		}
	})
	s.Run()
	if done != n {
		t.Fatalf("done=%d", done)
	}
	if s.Live() != 0 {
		t.Fatalf("live=%d", s.Live())
	}
}
