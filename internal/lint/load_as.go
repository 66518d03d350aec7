package lint

// LoadDirAs loads the single package in dir under an assumed import path.
// The fixture tests use this to exercise path-based allowlists: the same
// fixture package is loaded once as an internal simulation package (where a
// rule fires) and once under an allowlisted path (where it must not).
//
// The fixture bypasses the loader's memo in both directions: it is always
// type-checked from dir, even when the real package at path is already
// loaded, and it never replaces that package for later imports — otherwise
// a fixture loaded as, say, reaper/internal/parallel would shadow the real
// pool for every package type-checked after it.
func (l *Loader) LoadDirAs(path, dir string) (*Package, error) {
	prev, had := l.pkgs[path]
	delete(l.pkgs, path)
	p, err := l.check(path, dir)
	if had {
		l.pkgs[path] = prev
	} else {
		delete(l.pkgs, path)
	}
	return p, err
}
