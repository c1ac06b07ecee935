package rt

import "repro/internal/sim"

// Sim adapts a cooperative discrete-event engine to the Runtime seam.
// All behavior is the engine's own; the adapter adds nothing, so a run
// through the seam is bit-identical to one against the engine directly.
func Sim(eng *sim.Engine) Runtime { return simRT{eng} }

type simRT struct {
	eng *sim.Engine
}

func (r simRT) Real() bool                        { return false }
func (r simRT) Now() Time                         { return r.eng.Now() }
func (r simRT) Go(name string, fn func())         { r.eng.Go(name, fn) }
func (r simRT) Sleep(d Duration)                  { r.eng.Sleep(d) }
func (r simRT) SleepUntil(t Time)                 { r.eng.SleepUntil(t) }
func (r simRT) NewEvent() Event                   { return simEvent{r.eng.NewEvent()} }
func (r simRT) NewResource(capacity int) Resource { return r.eng.NewResource(capacity) }
func (r simRT) NewWaitGroup() WaitGroup           { return r.eng.NewWaitGroup() }
func (r simRT) Run()                              { r.eng.Run() }

// simEvent wraps *sim.Event. Waiter registration is deliberately lazy
// (Wait registers at block time, exactly like the engine's own Event):
// between Waiter() and Wait() no other simulated process can run — the
// caller holds the single execution token — so eager registration would
// be indistinguishable, and lazy registration keeps the engine's
// ready-queue ordering byte-for-byte identical to the pre-seam code.
type simEvent struct {
	ev *sim.Event
}

func (e simEvent) Wait()          { e.ev.Wait() }
func (e simEvent) Waiter() Waiter { return e }
func (e simEvent) Fire()          { e.ev.Fire() }
