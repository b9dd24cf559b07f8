// Fixture: span helpers, token-free and serial.
void pool2(unsigned long* dst, const unsigned long* a, const unsigned long* b,
           int n) {
  for (int i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}
