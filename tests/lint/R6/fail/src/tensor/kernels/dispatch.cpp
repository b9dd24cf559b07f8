// Fixture: seeded violation -- kernel dispatch pulls in <mutex>.
#include <atomic>
#include <mutex>
std::atomic<int> g_level{-1};
