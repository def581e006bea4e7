package sim

import (
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/sched"
)

// scanOccupancy counts idle and overloaded cores over the whole machine:
// an online core with no thread is idle, one with two or more is
// overloaded, and an offline core with work stranded on it counts as
// overloaded.
func scanOccupancy(m *sched.Machine) (idle, over int) {
	for _, c := range m.Cores {
		switch {
		case c.Offline:
			if c.NThreads() > 0 {
				over++
			}
		case c.Idle():
			idle++
		case c.Overloaded():
			over++
		}
	}
	return idle, over
}

// The counts observe keeps by recounting only touched cores equal a
// full scan after every distinct event time, in every fixture that
// changes occupancy a different way: spawns onto a core that failed and
// stranded its work, rescue and revival, idle steals, barriers and
// blocking — under both round modes.
func TestOccupancyCountsMatchRescan(t *testing.T) {
	const horizon = 300_000
	fixtures := []struct {
		name   string
		config func(*Config)
		load   func(*Simulator)
	}{
		{"stranded-fault", func(c *Config) { c.Policy = policy.NewNull() }, func(s *Simulator) {
			churnWorkload(s, 60, horizon)
			for i := range 6 {
				s.SpawnAt(int64(i*700), 1, 1024, RunOnce(3000))
			}
			s.FailAt(1500, 1) // core 1 strands its queue: no rescue rule
			s.FailAt(9000, 0) // core 0 too, while arrivals keep landing on it
			s.ReviveAt(30_000, 1)
			s.ReviveAt(60_000, 0)
		}},
		{"rescue-fault", func(c *Config) {
			p, err := policy.New("delta2-rescue")
			if err != nil {
				t.Fatal(err)
			}
			c.Policy = p
		}, func(s *Simulator) {
			churnWorkload(s, 60, horizon)
			s.FailAt(2500, 0)
			s.FailAt(7000, 2)
			s.ReviveAt(20_000, 0)
			s.ReviveAt(45_000, 2)
		}},
		{"idle-balance", func(c *Config) { c.IdleBalance = true }, func(s *Simulator) {
			churnWorkload(s, 150, horizon)
		}},
		{"barriers-and-blocking", nil, func(s *Simulator) {
			b := NewBarrier(3)
			for i := range 3 {
				s.SpawnAt(int64(i*300), 0, 1024, BarrierLoop(b, 700+int64(i)*400, 20))
			}
			for i := range 8 {
				s.SpawnAt(int64(i*900), i%2, 1024, RunBlockLoop(400+int64(i)*150, 1500, 10))
			}
		}},
	}
	for _, fx := range fixtures {
		for _, mode := range []RoundMode{RoundConcurrent, RoundSequential} {
			s := newSim(4, func(c *Config) {
				c.Mode = mode
				if fx.config != nil {
					fx.config(c)
				}
			})
			fx.load(s)
			steps, violating := 0, 0
			for at := s.q.peekTime(); at <= horizon; at = s.q.peekTime() {
				if _, err := s.RunContext(context.Background(), at); err != nil {
					t.Fatal(err)
				}
				steps++
				idle, over := scanOccupancy(s.m)
				if s.nClass[classIdle] != idle || s.nClass[classOver] != over {
					t.Fatalf("%s, mode %d, t=%d: kept %d idle / %d overloaded, a scan finds %d / %d",
						fx.name, mode, at, s.nClass[classIdle], s.nClass[classOver], idle, over)
				}
				if idle > 0 && over > 0 {
					violating++
				}
			}
			st := s.snapshot()
			if st.Completed == 0 || violating == 0 {
				t.Fatalf("%s, mode %d: %d completions and %d violating steps — fixture broken", fx.name, mode, st.Completed, violating)
			}
			t.Logf("%s, mode %d: %d steps (%d violating), %d steals, %d faults, %d completed",
				fx.name, mode, steps, violating, st.Steals, st.Faults, st.Completed)
		}
	}
}
