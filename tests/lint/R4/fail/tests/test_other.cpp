// Fixture: the only test, and it does not reference the conv header.
int unrelated = 0;
