// Package descriptions embeds the shipped experiment description documents
// (§IV-C): the canned experiments of the repository exist only as these
// files, and desc.Builtin parses them by name (the file stem).
package descriptions

import "embed"

// FS holds every *.xml document of this directory.
//
//go:embed *.xml
var FS embed.FS
