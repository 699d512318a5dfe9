// Package runstate is the lifecycle vocabulary of one simulation run,
// shared by the run registry (internal/serve), which assigns the states,
// and the sweep fabric's coordinator (internal/fabric), which reads them
// back from worker status JSON.
package runstate

// State is a run's lifecycle phase.
type State string

// A run is born queued, becomes running when the admission controller
// dispatches it, and ends in exactly one of done, failed or canceled.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// All lists every lifecycle state in order.
func All() []State { return []State{Queued, Running, Done, Failed, Canceled} }

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }
