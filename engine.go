package dscted

// Incremental re-solve façade: the event-driven engine of
// internal/incremental, which keeps one DSCT-EA instance alive across
// scheduler events (task arrivals/departures, machine churn, budget
// renegotiations) and re-optimises from the previous solve's basis and
// pseudo-costs instead of solving cold. cmd/dsctd wraps the same engine as
// a daemon.

import "repro/internal/incremental"

// Incremental engine re-exports.
type (
	// Engine is a mutable DSCT-EA instance with warm-started re-solves.
	Engine = incremental.Engine
	// EngineOptions tunes an Engine (batching, warm starts, node cap).
	EngineOptions = incremental.Options
	// Event is one scheduler event posted to an Engine.
	Event = incremental.Event
	// EventKind names a scheduler event type.
	EventKind = incremental.EventKind
	// EngineSolution is the engine's view of one re-solve.
	EngineSolution = incremental.Solution
	// EngineStats is the engine's cumulative event/solve accounting.
	EngineStats = incremental.Stats
	// TraceConfig parameterises synthetic event streams.
	TraceConfig = incremental.TraceConfig
)

// Event kinds.
const (
	TaskArrive   = incremental.TaskArrive
	TaskDepart   = incremental.TaskDepart
	MachineJoin  = incremental.MachineJoin
	MachineLeave = incremental.MachineLeave
	BudgetChange = incremental.BudgetChange
)

// NewEngine creates an empty incremental engine.
func NewEngine(opts EngineOptions) *Engine { return incremental.New(opts) }

// DefaultTraceConfig returns a fig-scale synthetic event-stream config.
func DefaultTraceConfig(seed int64, events, tasks, machines int) TraceConfig {
	return incremental.DefaultTraceConfig(seed, events, tasks, machines)
}

// GenTrace generates a deterministic synthetic event stream.
func GenTrace(cfg TraceConfig) ([]Event, error) { return incremental.GenTrace(cfg) }
