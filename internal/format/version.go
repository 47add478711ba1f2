// Package format holds the one error every on-disk reader — bundle manifest,
// collection file, B+tree file, posting — returns for input written in a
// format version this build does not read. Each file kind has exactly one
// current format; the upgrade path from any other is to rebuild the bundle.
package format

import (
	"errors"
	"fmt"
)

// ErrUnsupportedVersion matches, through errors.Is, every VersionError.
var ErrUnsupportedVersion = errors.New("unsupported on-disk format version")

// VersionError reports a recognizable artifact of the wrong format version.
// Like the readers' other errors it does not name the file: whoever opened
// the file prefixes the path.
type VersionError struct {
	// Kind names the artifact: "bundle manifest", "collection file",
	// "B+tree file", "posting".
	Kind string
	// Found is the version marker read, Supported the one this build
	// reads and writes.
	Found, Supported string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("%s has unsupported version %q (this build reads only %q); re-run axqlindex to rebuild the bundle",
		e.Kind, e.Found, e.Supported)
}

// Unwrap makes errors.Is(err, ErrUnsupportedVersion) hold.
func (e *VersionError) Unwrap() error { return ErrUnsupportedVersion }
