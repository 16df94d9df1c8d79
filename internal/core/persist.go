package core

import (
	"fmt"
	"math"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// CoordinatorState is a self-contained checkpoint of the coordinator
// state machine: everything HandleMessage reads or writes, including
// the RNG state that keys withheld items. A coordinator restored from
// it continues bit-exactly where the snapshot was taken — same sample,
// same future key draws, same broadcasts — which is what makes
// restart-from-snapshot a safe fault-recovery path (see DESIGN.md §15):
// the control plane is monotone, so sites holding a threshold from
// *after* the snapshot merely filter with a stale-high bound, which can
// only drop keys with at least s released dominators at the time that
// bound was broadcast.
type CoordinatorState struct {
	Cfg       Config
	RNG       [4]uint64
	U         float64
	Threshold float64
	Sample    []SampleEntry     // released top-s (heap order, content-significant only)
	Pool      []PoolEntryState  // withheld top-s with their levels
	Levels    []LevelStateEntry // per-level counters, ascending by level
	Stats     CoordStats
}

// PoolEntryState is one withheld item in a checkpoint.
type PoolEntryState struct {
	Key   float64
	Item  stream.Item
	Level int
}

// LevelStateEntry is one level-set counter in a checkpoint.
type LevelStateEntry struct {
	Level     int
	Count     int
	Saturated bool
}

// ExportState captures the coordinator as a CoordinatorState. The
// returned value shares nothing with the live coordinator; callers on
// concurrent runtimes must invoke it serialized with message processing
// (Runtime.Do / Snapshots.View), like every other state read.
func (c *Coordinator) ExportState() *CoordinatorState {
	st := &CoordinatorState{
		Cfg:       c.cfg,
		RNG:       c.rng.State(),
		U:         c.u,
		Threshold: c.plane.Threshold(),
		Stats:     c.Stats,
		Sample:    make([]SampleEntry, 0, c.smp.Len()),
		Pool:      make([]PoolEntryState, 0, c.pool.Len()),
		Levels:    make([]LevelStateEntry, 0, len(c.early)),
	}
	for _, e := range c.smp.Items() {
		st.Sample = append(st.Sample, SampleEntry{Key: e.Key, Item: e.Val})
	}
	for _, e := range c.pool.Items() {
		st.Pool = append(st.Pool, PoolEntryState{Key: e.Key, Item: e.Val.item, Level: e.Val.level})
	}
	for j, n := range c.early {
		if sat := c.plane.Saturated(j); n > 0 || sat {
			st.Levels = append(st.Levels, LevelStateEntry{Level: j, Count: n, Saturated: sat})
		}
	}
	if mutationDropPool {
		st.Pool = nil // planted checkpoint bug (wrsmutation builds only)
	}
	return st
}

// Validate checks the structural invariants a checkpoint must satisfy
// before it can be restored. It rejects corrupt snapshots rather than
// rebuilding a coordinator that would violate the O(s) bounds.
func (st *CoordinatorState) Validate() error {
	if err := st.Cfg.Validate(); err != nil {
		return fmt.Errorf("core: snapshot config: %w", err)
	}
	if st.RNG[0]|st.RNG[1]|st.RNG[2]|st.RNG[3] == 0 {
		return fmt.Errorf("core: snapshot has all-zero RNG state")
	}
	if len(st.Sample) > st.Cfg.S {
		return fmt.Errorf("core: snapshot sample holds %d entries, cap %d", len(st.Sample), st.Cfg.S)
	}
	if len(st.Pool) > st.Cfg.S {
		return fmt.Errorf("core: snapshot pool holds %d entries, cap %d", len(st.Pool), st.Cfg.S)
	}
	if !(st.Threshold >= 0) || st.Threshold > math.MaxFloat64 {
		return fmt.Errorf("core: snapshot threshold %v is not finite and nonnegative", st.Threshold)
	}
	seen := -1
	for _, lv := range st.Levels {
		if lv.Level < 0 || lv.Level <= seen || lv.Level > MaxLevel {
			return fmt.Errorf("core: snapshot levels not ascending within [0, %d] at level %d", MaxLevel, lv.Level)
		}
		seen = lv.Level
		if lv.Count < 0 {
			return fmt.Errorf("core: snapshot level %d has negative count", lv.Level)
		}
	}
	return nil
}

// RestoreCoordinator rebuilds a coordinator from a checkpoint taken
// with ExportState. The restored machine is behaviorally identical to
// the snapshotted one: same query, same statistics, and — because the
// RNG state is part of the checkpoint — the same keys for every future
// early message.
func RestoreCoordinator(st *CoordinatorState) (*Coordinator, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	c := NewCoordinator(st.Cfg, xrand.New(0))
	if err := c.RestoreState(st); err != nil {
		return nil, err
	}
	return c, nil
}

// RestoreState overwrites the coordinator with a checkpoint in place,
// keeping every outstanding pointer to it valid — the restart path of
// the chaos engine, where application descriptors and runtimes hold the
// coordinator by reference and a restart must not strand them on the
// dead pre-crash object. The checkpoint's config must match the
// coordinator's own: a restart never changes the protocol parameters.
// The attached recorder, if any, is kept.
func (c *Coordinator) RestoreState(st *CoordinatorState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	if st.Cfg != c.cfg {
		return fmt.Errorf("core: snapshot config %+v does not match coordinator config %+v", st.Cfg, c.cfg)
	}
	c.rng = xrand.NewFromState(st.RNG)
	c.u = st.U
	c.plane = ControlPlane{threshold: st.Threshold}
	c.Stats = st.Stats
	c.smp.Reset()
	for _, e := range st.Sample {
		c.smp.Offer(e.Key, e.Item)
	}
	c.pool.Reset()
	for _, e := range st.Pool {
		c.pool.Offer(e.Key, poolItem{item: e.Item, level: e.Level})
	}
	c.early = c.early[:0]
	for _, lv := range st.Levels {
		c.early = append(c.early, make([]int, lv.Level+1-len(c.early))...)
		c.early[lv.Level] = lv.Count
		if lv.Saturated {
			c.plane.Apply(Message{Kind: MsgLevelSaturated, Level: lv.Level})
		}
	}
	return nil
}
