// The benchmark is a module of its own so the repository's build files
// and tier-1 test list are untouched; it reaches coherencesim/internal/...
// because its module path sits under the coherencesim prefix.
module coherencesim/bench

go 1.22

require coherencesim v0.0.0

replace coherencesim => ../
