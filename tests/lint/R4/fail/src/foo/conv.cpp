// Fixture: seeded violation -- no test file references this module's
// header, so it counts as an untested module.
int conv_stub() { return 1; }
