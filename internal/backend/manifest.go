package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"approxql/internal/format"
)

// manifestMagic is the first line of a bundle manifest. Tools sniff the
// prefix to tell manifests from collection files; the reader accepts the
// full line only, so a manifest of any other version is answered with a
// format.VersionError instead of being parsed.
const (
	manifestMagicPrefix = "axql-bundle v"
	manifestMagic       = manifestMagicPrefix + "6"
)

// maxManifestSize bounds a manifest file: the JSON body holds shard file
// names, document names, and label summaries — megabytes at most for any
// realistic corpus. The cap keeps a corrupted or hostile manifest from
// ballooning memory before validation.
const maxManifestSize = 64 << 20

// Manifest is the bundle manifest: the magic line followed by a JSON body
// naming the files of every shard and, for a corpus, the global document
// table. Paths are relative to the manifest's directory (absolute paths are
// kept verbatim), so a bundle directory moves as a unit:
//
//	axql-bundle v6
//	{
//	  "shards": [
//	    {"collection": "c.s0.axql", "postings": "c.s0.post",
//	     "secondary": "c.s0.sec", "summary": {...}},
//	    ...
//	  ],
//	  "docs": [{"shard": 0, "name": "a.xml"}, {"shard": 0, "name": "b.xml"}, ...]
//	}
//
// Docs lists every document of a corpus in global DocID order; each document
// names the shard holding it. A single-database bundle is one shard without
// a document table. Shard summaries are optional — a manifest without them
// still opens, the corpus just recomputes them from the shard trees.
type Manifest struct {
	Shards []ManifestShard `json:"shards"`
	Docs   []ManifestDoc   `json:"docs,omitempty"`
}

// ManifestShard names one shard's three files — the collection file (tree
// dictionaries and structure, xmltree.WriteTo format), the postings B+tree
// (I_struct/I_text), and the secondary B+tree (I_sec) — plus its pruning
// summary.
type ManifestShard struct {
	Collection string   `json:"collection"`
	Postings   string   `json:"postings"`
	Secondary  string   `json:"secondary"`
	Summary    *Summary `json:"summary,omitempty"`
}

// ManifestDoc is one entry of the global document table.
type ManifestDoc struct {
	// Shard indexes Manifest.Shards.
	Shard int `json:"shard"`
	// Name is the document's external name (the source file, usually).
	Name string `json:"name,omitempty"`
}

// IsBundle reports whether the file at path starts like a bundle manifest of
// any version; ReadManifest then accepts or rejects the version.
func IsBundle(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, len(manifestMagicPrefix))
	n, _ := f.Read(buf)
	return string(buf[:n]) == manifestMagicPrefix
}

// IsCorpusBundle reports whether the file at path is a readable manifest
// with a document table.
func IsCorpusBundle(path string) bool {
	m, err := ReadManifest(path)
	return err == nil && len(m.Docs) > 0
}

// WriteManifest writes m at path, relativizing the shard file paths to the
// manifest's directory where possible. The manifest must validate (at least
// one shard, complete file triples, a document table when there are several
// shards, in-range document shard indices).
func WriteManifest(path string, m Manifest) error {
	if err := validateManifest(&m); err != nil {
		return fmt.Errorf("backend: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	rel := func(p string) string {
		if r, err := filepath.Rel(dir, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return p
	}
	out := m
	out.Shards = make([]ManifestShard, len(m.Shards))
	for i, s := range m.Shards {
		s.Collection = rel(s.Collection)
		s.Postings = rel(s.Postings)
		s.Secondary = rel(s.Secondary)
		out.Shards[i] = s
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteString(manifestMagic + "\n")
	b.Write(body)
	b.WriteByte('\n')
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// ReadManifest parses and validates the manifest at path, resolving shard
// file paths against the manifest's directory.
func ReadManifest(path string) (Manifest, error) {
	st, err := os.Stat(path)
	if err != nil {
		return Manifest{}, err
	}
	if st.Size() > maxManifestSize {
		return Manifest{}, fmt.Errorf("backend: %s: manifest exceeds %d bytes", path, maxManifestSize)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	return parseManifest(data, path)
}

// parseManifest is ReadManifest past the file read: every manifest it
// accepts has a complete, in-range shard table.
func parseManifest(data []byte, path string) (Manifest, error) {
	magic, body, _ := bytes.Cut(data, []byte("\n"))
	if string(magic) != manifestMagic {
		if strings.HasPrefix(string(magic), manifestMagicPrefix) {
			return Manifest{}, fmt.Errorf("backend: %s: %w", path, &format.VersionError{
				Kind:      "bundle manifest",
				Found:     truncate(string(magic), 32),
				Supported: manifestMagic,
			})
		}
		return Manifest{}, fmt.Errorf("backend: %s is not an axql bundle", path)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("backend: %s: malformed manifest body: %w", path, err)
	}
	// A second document after the manifest object is corruption, not data.
	if dec.More() {
		return Manifest{}, fmt.Errorf("backend: %s: malformed manifest body: trailing data after manifest object", path)
	}
	if err := validateManifest(&m); err != nil {
		return Manifest{}, fmt.Errorf("backend: %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	resolve := func(p string) string {
		if filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(dir, p)
	}
	for i := range m.Shards {
		s := &m.Shards[i]
		s.Collection = resolve(s.Collection)
		s.Postings = resolve(s.Postings)
		s.Secondary = resolve(s.Secondary)
	}
	return m, nil
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// validateManifest checks the structural invariants shared by the reader
// and the writer.
func validateManifest(m *Manifest) error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("manifest has no shards")
	}
	for i, s := range m.Shards {
		for _, e := range []struct{ key, file string }{
			{"collection", s.Collection},
			{"postings", s.Postings},
			{"secondary", s.Secondary},
		} {
			if e.file == "" {
				return fmt.Errorf("shard %d is missing the %s file", i, e.key)
			}
		}
		if sum := s.Summary; sum != nil {
			if sum.Docs < 0 || sum.Nodes < 0 || sum.MaxDepth < 0 {
				return fmt.Errorf("shard %d has a negative summary counter", i)
			}
			for label, n := range sum.Struct {
				if n < 0 {
					return fmt.Errorf("shard %d summary: negative count for label %q", i, label)
				}
			}
			for term, n := range sum.Text {
				if n < 0 {
					return fmt.Errorf("shard %d summary: negative count for term %q", i, term)
				}
			}
		}
	}
	if len(m.Docs) == 0 && len(m.Shards) > 1 {
		return fmt.Errorf("manifest has %d shards but no document table", len(m.Shards))
	}
	for id, d := range m.Docs {
		if d.Shard < 0 || d.Shard >= len(m.Shards) {
			return fmt.Errorf("doc %d names shard %d of %d", id, d.Shard, len(m.Shards))
		}
	}
	// Shard-declared document counts must cover the document table: a
	// summary claiming fewer documents than the table assigns to the shard
	// means the manifest and its shard files disagree.
	perShard := make([]int, len(m.Shards))
	for _, d := range m.Docs {
		perShard[d.Shard]++
	}
	for i, s := range m.Shards {
		if s.Summary != nil && len(m.Docs) > 0 && s.Summary.Docs != perShard[i] {
			return fmt.Errorf("shard %d summary declares %d docs, document table assigns %d",
				i, s.Summary.Docs, perShard[i])
		}
	}
	return nil
}
