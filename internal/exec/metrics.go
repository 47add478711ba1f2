package exec

import (
	"fmt"
	"strings"
	"time"
)

// Metrics records per-stage counters and timings of one evaluation — the
// EXPLAIN-ANALYZE view of the schema-driven strategy. Pass a zero Metrics
// through Config.Metrics (one per Run; the engine does not reset it, so a
// reused struct accumulates).
type Metrics struct {
	// ParseTime and ExpandTime cover query parsing and the expansion
	// under the cost model; they are filled by the public facade.
	ParseTime  time.Duration
	ExpandTime time.Duration
	// PlanTime is the total time planning second-level queries against
	// the schema (algorithm primary), summed over rounds.
	PlanTime time.Duration
	// ExecTime is the total time executing second-level queries against
	// the secondary index, summed over rounds.
	ExecTime time.Duration

	// Rounds is the number of incremental rounds (k, k+δ, ...).
	Rounds int
	// KPerRound records the k of each round.
	KPerRound []int
	// FinalK is the k of the last round.
	FinalK int
	// MaxK is the termination bound in effect (configured or derived
	// from the schema).
	MaxK int

	// Planned counts second-level queries returned by planning, summed
	// over rounds (a query planned in r rounds counts r times).
	Planned int
	// Deduped counts planned queries skipped because an earlier round
	// already executed a query with the same skeleton signature.
	Deduped int
	// Executed counts second-level queries executed against the
	// secondary index. It is at most Planned minus Deduped: a run that
	// stops early (enough results, emit returned false, or the external
	// bound) leaves the rest of its round unexecuted.
	Executed int

	// SchemaFetches counts schema-index fetches during planning.
	SchemaFetches int
	// ListOps counts adapted list operations during planning.
	ListOps int
	// SecondaryFetches counts I_sec posting fetches during execution,
	// including recursive fetches for skeleton children.
	SecondaryFetches int
	// PostingsScanned counts instance-posting entries touched.
	PostingsScanned int

	// BackendFetches, BackendHits, and BackendBytesDecoded are the shared
	// posting-cache counters of a stored backend, accumulated over the run:
	// fetches that went through the cache layer, the subset served without
	// touching storage, and the raw bytes decoded on misses. All zero when
	// the postings are served from memory. Engines sharing one backend
	// attribute concurrent fetches to whichever run is being measured.
	BackendFetches int
	// BackendHits counts BackendFetches served from the shared LRU.
	BackendHits int
	// BackendBytesDecoded counts raw posting bytes decoded from storage.
	BackendBytesDecoded int64
	// PageReads counts logical page accesses against the stored backend's
	// B+tree files (page-cache and mmap hits included); PageEvictions the
	// pages evicted from their page caches (always zero under mmap).
	PageReads     int64
	PageEvictions int64

	// The Eval* counters are the allocation-discipline view of the direct
	// strategy (algorithm primary); they stay zero for schema-driven runs.
	// EvalArenaChunks and EvalArenaEntries count entry-arena chunks
	// allocated and entries carved from them; EvalScratchHits and
	// EvalScratchMisses count pooled scratch and chunk acquisitions served
	// from a pool versus freshly allocated.
	EvalArenaChunks   int
	EvalArenaEntries  int
	EvalScratchHits   int
	EvalScratchMisses int

	// The corpus counters describe a sharded scatter-gather evaluation
	// (internal/corpus); they stay zero for single-database queries.
	// Shards counts the shards the query fanned out to; ShardsPruned the
	// shards skipped up front because their schema summary proved they
	// cannot contain any result root.
	Shards       int
	ShardsPruned int
	// BoundSkipped counts second-level queries skipped because their cost
	// exceeded the externally published top-n bound; BoundStops counts
	// shard runs the bound terminated early. Together they measure how
	// much per-shard work the scatter-gather cutoff saved.
	BoundSkipped int
	BoundStops   int

	// The Planner* fields describe how the Auto strategy was resolved;
	// they stay zero/empty when the caller forced a strategy.
	// PlannerStrategy names the strategy the planner picked ("direct" or
	// "schema"); PlannerEstimate is its approximate-result-count estimate
	// R̂; PlannerProbes counts the count-only index probes the estimate
	// issued. In a sharded evaluation the planner decides per shard:
	// PlannerDirect/PlannerSchema count the shards routed to each
	// strategy, PlannerEstimate sums the per-shard estimates, and
	// PlannerStrategy names the majority pick.
	PlannerStrategy string
	PlannerEstimate int
	PlannerProbes   int
	PlannerDirect   int
	PlannerSchema   int

	// ResultsEmitted counts distinct result roots delivered.
	ResultsEmitted int
	// Truncated reports that the search hit MaxK before finding N
	// results or exhausting the plan space: the answer is best-effort.
	Truncated bool
}

// Merge accumulates another evaluation's metrics into m: durations and
// counters add, KPerRound appends, MaxK/FinalK keep the maximum seen, and
// Truncated ors. It is the aggregation primitive for long-running
// processes (the query server) that fold per-request metrics into one
// cumulative view. The caller provides synchronization.
func (m *Metrics) Merge(o *Metrics) {
	m.ParseTime += o.ParseTime
	m.ExpandTime += o.ExpandTime
	m.PlanTime += o.PlanTime
	m.ExecTime += o.ExecTime
	m.Rounds += o.Rounds
	m.KPerRound = append(m.KPerRound, o.KPerRound...)
	if o.FinalK > m.FinalK {
		m.FinalK = o.FinalK
	}
	if o.MaxK > m.MaxK {
		m.MaxK = o.MaxK
	}
	m.Planned += o.Planned
	m.Deduped += o.Deduped
	m.Executed += o.Executed
	m.SchemaFetches += o.SchemaFetches
	m.ListOps += o.ListOps
	m.SecondaryFetches += o.SecondaryFetches
	m.PostingsScanned += o.PostingsScanned
	m.BackendFetches += o.BackendFetches
	m.BackendHits += o.BackendHits
	m.BackendBytesDecoded += o.BackendBytesDecoded
	m.PageReads += o.PageReads
	m.PageEvictions += o.PageEvictions
	m.EvalArenaChunks += o.EvalArenaChunks
	m.EvalArenaEntries += o.EvalArenaEntries
	m.EvalScratchHits += o.EvalScratchHits
	m.EvalScratchMisses += o.EvalScratchMisses
	m.Shards += o.Shards
	m.ShardsPruned += o.ShardsPruned
	m.BoundSkipped += o.BoundSkipped
	m.BoundStops += o.BoundStops
	if o.PlannerStrategy != "" {
		m.PlannerStrategy = o.PlannerStrategy
	}
	m.PlannerEstimate += o.PlannerEstimate
	m.PlannerProbes += o.PlannerProbes
	m.PlannerDirect += o.PlannerDirect
	m.PlannerSchema += o.PlannerSchema
	m.ResultsEmitted += o.ResultsEmitted
	m.Truncated = m.Truncated || o.Truncated
}

// Snapshot returns a copy of m safe to read while the original keeps
// accumulating under the caller's lock: the one reference-typed field
// (KPerRound) is cloned.
func (m *Metrics) Snapshot() Metrics {
	s := *m
	s.KPerRound = append([]int(nil), m.KPerRound...)
	return s
}

// String renders the metrics as an aligned multi-line report.
func (m *Metrics) String() string {
	var b strings.Builder
	w := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	w("parse time        %v", m.ParseTime)
	w("expand time       %v", m.ExpandTime)
	w("plan time         %v", m.PlanTime)
	w("exec time         %v", m.ExecTime)
	w("rounds            %d  (k per round: %s)", m.Rounds, formatKs(m.KPerRound))
	w("final k           %d  (bound %d)", m.FinalK, m.MaxK)
	w("planned           %d", m.Planned)
	w("deduped           %d", m.Deduped)
	w("executed          %d", m.Executed)
	w("schema fetches    %d", m.SchemaFetches)
	w("list ops          %d", m.ListOps)
	w("secondary fetches %d", m.SecondaryFetches)
	w("postings scanned  %d", m.PostingsScanned)
	if m.BackendFetches > 0 {
		w("backend fetches   %d  (cache hits %d, %d bytes decoded)",
			m.BackendFetches, m.BackendHits, m.BackendBytesDecoded)
	}
	if m.PageReads > 0 {
		w("page reads        %d  (%d evictions)", m.PageReads, m.PageEvictions)
	}
	if m.EvalArenaEntries > 0 {
		w("eval arena        %d entries in %d chunks", m.EvalArenaEntries, m.EvalArenaChunks)
		w("eval scratch      %d pool hits, %d misses", m.EvalScratchHits, m.EvalScratchMisses)
	}
	if m.Shards > 0 {
		w("shards            %d searched, %d pruned", m.Shards, m.ShardsPruned)
	}
	if m.BoundSkipped > 0 || m.BoundStops > 0 {
		w("bound cutoff      %d queries skipped, %d shard stops", m.BoundSkipped, m.BoundStops)
	}
	if m.PlannerStrategy != "" {
		if m.PlannerDirect+m.PlannerSchema > 1 {
			w("planner           %s  (estimate %d, %d probes; %d direct / %d schema shards)",
				m.PlannerStrategy, m.PlannerEstimate, m.PlannerProbes, m.PlannerDirect, m.PlannerSchema)
		} else {
			w("planner           %s  (estimate %d, %d probes)",
				m.PlannerStrategy, m.PlannerEstimate, m.PlannerProbes)
		}
	}
	w("results emitted   %d", m.ResultsEmitted)
	if m.Truncated {
		w("truncated         true")
	}
	return b.String()
}

func formatKs(ks []int) string {
	if len(ks) == 0 {
		return "-"
	}
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprint(k)
	}
	return strings.Join(parts, ", ")
}
