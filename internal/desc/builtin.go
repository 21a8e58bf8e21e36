package desc

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"

	"excovery/descriptions"
)

// Builtins lists the names of the embedded descriptions — the file stems
// of descriptions/*.xml — in sorted order.
func Builtins() []string {
	files, _ := fs.Glob(descriptions.FS, "*.xml") // errors only on a malformed pattern
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = strings.TrimSuffix(f, ".xml")
	}
	sort.Strings(names)
	return names
}

// Builtin parses the embedded description descriptions/<name>.xml. Every
// call returns a fresh Experiment the caller may modify.
func Builtin(name string) (*Experiment, error) {
	f, err := descriptions.FS.Open(name + ".xml")
	if err != nil {
		return nil, fmt.Errorf("desc: unknown builtin %q (have %s)", name, strings.Join(Builtins(), ", "))
	}
	defer f.Close()
	return Parse(f)
}

// Load is the description loader of the command-line tools: the embedded
// description named builtin or, when builtin is empty, the document at
// path.
func Load(builtin, path string) (*Experiment, error) {
	if builtin != "" {
		return Builtin(builtin)
	}
	if path == "" {
		return nil, errors.New("need a description file or -builtin")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// mustBuiltin is Builtin for the embedded files the package's own tests
// parse and validate; a failure is a broken build, not an input error.
func mustBuiltin(name string) *Experiment {
	e, err := Builtin(name)
	if err != nil {
		panic(err)
	}
	return e
}

// CaseStudy is descriptions/casestudy.xml, the paper's case study as
// assembled from Figs. 4–10, with the given number of replications per
// treatment (the paper uses 1000).
func CaseStudy(replications int) *Experiment {
	e := mustBuiltin("casestudy")
	e.Repl.Count = replications
	return e
}

// OneShot is descriptions/oneshot.xml, the one-shot discovery of Fig. 11,
// with the SU's search deadline set to deadline seconds.
func OneShot(deadline float64) *Experiment {
	e := mustBuiltin("oneshot")
	for _, a := range e.NodeProcesses[1].Actions {
		if a.Wait != nil && a.Wait.TimeoutSec > 0 {
			a.Wait.TimeoutSec = deadline
		}
	}
	return e
}
