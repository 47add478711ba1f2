package backend

import (
	"sync"
	"sync/atomic"

	"approxql/internal/index"
	"approxql/internal/schema"
	"approxql/internal/xmltree"
)

// Memory is the in-memory backend: postings built by one pass over the data
// tree, I_sec served from the schema's own instance lists. It is the
// backend behind databases built from XML or loaded from a collection file.
type Memory struct {
	tree *xmltree.Tree
	ix   *index.Memory

	schemaOnce sync.Once
	sch        atomic.Pointer[schema.Schema]
}

// NewMemory indexes tree and returns the in-memory backend over it.
func NewMemory(tree *xmltree.Tree) *Memory {
	return &Memory{tree: tree, ix: index.Build(tree)}
}

// Tree implements Backend.
func (m *Memory) Tree() *xmltree.Tree { return m.tree }

// Index exposes the underlying in-memory label indexes, for persisting them
// with index.Save and for direct posting access.
func (m *Memory) Index() *index.Memory { return m.ix }

// Schema implements Backend, building the structural summary on first use.
func (m *Memory) Schema() *schema.Schema {
	m.schemaOnce.Do(func() { m.sch.Store(schema.Build(m.tree)) })
	return m.sch.Load()
}

// HasSchema implements Backend.
func (m *Memory) HasSchema() bool { return m.sch.Load() != nil }

// Struct implements index.Source.
func (m *Memory) Struct(name string) ([]xmltree.NodeID, error) { return m.ix.Struct(name) }

// Text implements index.Source.
func (m *Memory) Text(term string) ([]xmltree.NodeID, error) { return m.ix.Text(term) }

// StructCount implements CountSource exactly from the in-memory posting.
func (m *Memory) StructCount(name string) (int, error) { return m.ix.StructCount(name) }

// TextCount implements CountSource exactly from the in-memory posting.
func (m *Memory) TextCount(term string) (int, error) { return m.ix.TextCount(term) }

// SecInstances implements schema.SecSource.
func (m *Memory) SecInstances(c schema.NodeID) ([]xmltree.NodeID, error) {
	return m.Schema().SecInstances(c)
}

// SecTermInstances implements schema.SecSource.
func (m *Memory) SecTermInstances(c schema.NodeID, term string) ([]xmltree.NodeID, error) {
	return m.Schema().SecTermInstances(c, term)
}

// SecInstancesUpTo implements schema.SecSourceUpTo.
func (m *Memory) SecInstancesUpTo(c schema.NodeID, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return m.Schema().SecInstancesUpTo(c, bound)
}

// SecTermInstancesUpTo implements schema.SecSourceUpTo.
func (m *Memory) SecTermInstancesUpTo(c schema.NodeID, term string, bound xmltree.NodeID) ([]xmltree.NodeID, error) {
	return m.Schema().SecTermInstancesUpTo(c, term, bound)
}

// SecInstanceCount implements schema.SecCounter.
func (m *Memory) SecInstanceCount(c schema.NodeID) (int, error) {
	return m.Schema().SecInstanceCount(c)
}

// SecTermInstanceCount implements schema.SecCounter.
func (m *Memory) SecTermInstanceCount(c schema.NodeID, term string) (int, error) {
	return m.Schema().SecTermInstanceCount(c, term)
}

// CacheStats implements Backend; the in-memory backend has no cache layer.
func (m *Memory) CacheStats() index.CacheStats { return index.CacheStats{} }

// Close implements Backend; the in-memory backend holds no resources.
func (m *Memory) Close() error { return nil }
