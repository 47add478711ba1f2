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
	// the schema (algorithm primary): building the plan stream and
	// pulling from it.
	PlanTime time.Duration
	// ExecTime is the total time executing second-level queries against
	// the secondary index.
	ExecTime time.Duration

	// Rounds counts plan streams opened: one per schema-driven run that
	// plans at all.
	Rounds int
	// FinalK is the number of second-level queries pulled from the plan
	// stream, like Planned; merged metrics keep the largest.
	FinalK int
	// MaxK is the configured cap on pulled queries (0: none).
	MaxK int

	// Planned counts second-level queries pulled from the plan stream.
	Planned int
	// Deduped counts pulled queries skipped because an earlier one had
	// the same skeleton signature (the stream repeats a signature only
	// when the query repeats a subexpression).
	Deduped int
	// Executed counts second-level queries executed against the
	// secondary index: Planned minus Deduped, less the one query a bound
	// or budget stop pulls without running.
	Executed int
	// EmptyExecuted counts executed second-level queries that retrieved
	// no root: skeletons the schema admits but no data subtree
	// instantiates.
	EmptyExecuted int

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
	// from a pool versus freshly allocated. EvalAncestorsVisited counts
	// the ancestor-list entries the joins stepped onto; the ones that hold
	// no descendant are skipped, so it follows the matches.
	EvalArenaChunks      int
	EvalArenaEntries     int
	EvalScratchHits      int
	EvalScratchMisses    int
	EvalAncestorsVisited int

	// The corpus counters describe a sharded scatter-gather evaluation
	// (internal/corpus); a Database query searches its one shard.
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
	// they stay zero/empty when the caller forced a strategy. Auto starts
	// every shard with n > 0 schema-driven under a budget of Price and
	// every n <= 0 shard direct. PlannerStrategy names the starting pick
	// ("direct" or "schema"), which every shard of a query shares.
	// Price sums the shards' direct-algorithm prices (plan.Price), and
	// PlannerProbes counts the count-only index probes that priced them.
	// Switched counts schema-started shards that spent their budget,
	// discarded their hits, and ran Direct.
	PlannerStrategy string
	PlannerProbes   int
	Price           int
	Switched        int

	// ResultsEmitted counts distinct result roots delivered.
	ResultsEmitted int
	// Truncated reports that the search hit MaxK before finding N
	// results or exhausting the plan stream: the answer is best-effort.
	Truncated bool
}

// Merge accumulates another evaluation's metrics into m: durations and
// counters add, MaxK/FinalK keep the maximum seen, Truncated ors, and
// PlannerStrategy keeps the last pick named (every shard of a query
// starts the same way). It is the aggregation primitive for long-running
// processes (the query server) that fold per-request metrics into one
// cumulative view. The caller provides synchronization.
func (m *Metrics) Merge(o *Metrics) {
	m.ParseTime += o.ParseTime
	m.ExpandTime += o.ExpandTime
	m.PlanTime += o.PlanTime
	m.ExecTime += o.ExecTime
	m.Rounds += o.Rounds
	if o.FinalK > m.FinalK {
		m.FinalK = o.FinalK
	}
	if o.MaxK > m.MaxK {
		m.MaxK = o.MaxK
	}
	m.Planned += o.Planned
	m.Deduped += o.Deduped
	m.Executed += o.Executed
	m.EmptyExecuted += o.EmptyExecuted
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
	m.EvalAncestorsVisited += o.EvalAncestorsVisited
	m.Shards += o.Shards
	m.ShardsPruned += o.ShardsPruned
	m.BoundSkipped += o.BoundSkipped
	m.BoundStops += o.BoundStops
	if o.PlannerStrategy != "" {
		m.PlannerStrategy = o.PlannerStrategy
	}
	m.PlannerProbes += o.PlannerProbes
	m.Price += o.Price
	m.Switched += o.Switched
	m.ResultsEmitted += o.ResultsEmitted
	m.Truncated = m.Truncated || o.Truncated
}

// Snapshot returns a copy of m safe to read while the original keeps
// accumulating under the caller's lock.
func (m *Metrics) Snapshot() Metrics { return *m }

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
	w("rounds            %d", m.Rounds)
	if m.MaxK > 0 {
		w("planned           %d  (cap %d)", m.Planned, m.MaxK)
	} else {
		w("planned           %d", m.Planned)
	}
	w("deduped           %d", m.Deduped)
	w("executed          %d  (%d empty)", m.Executed, m.EmptyExecuted)
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
		w("eval ancestors    %d visited by the joins", m.EvalAncestorsVisited)
		w("eval scratch      %d pool hits, %d misses", m.EvalScratchHits, m.EvalScratchMisses)
	}
	if m.Shards > 0 {
		w("shards            %d searched, %d pruned", m.Shards, m.ShardsPruned)
	}
	if m.BoundSkipped > 0 || m.BoundStops > 0 {
		w("bound cutoff      %d queries skipped, %d shard stops", m.BoundSkipped, m.BoundStops)
	}
	if m.PlannerStrategy != "" {
		w("planner           %s  (price %d, %d probes, %d switched)",
			m.PlannerStrategy, m.Price, m.PlannerProbes, m.Switched)
	}
	w("results emitted   %d", m.ResultsEmitted)
	if m.Truncated {
		w("truncated         true")
	}
	return b.String()
}
