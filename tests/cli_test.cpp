/// \file cli_test.cpp
/// Malformed command lines of the service and chaos tools. Each must exit 64
/// (EX_USAGE) before it touches a cache, a socket or a trial directory; a
/// number with trailing junk is malformed, never read as its prefix.

#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

/// Runs `binary args` with output discarded; the exit code, or -1. A tool
/// that accepted the arguments and started serving is stopped after 30 s
/// (exit 124), so a regression fails instead of hanging.
int run(const char* binary, const std::string& args) {
  const std::string cmd = "timeout 30 " + std::string(binary) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("rw_cli_" + name + "_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir.string();
}

TEST(ToolCli, RwservedGcWithAMalformedAgeExitsSixtyFourAndEvictsNothing) {
  // An entry idle since 2020: a sweep with a 5 ms age threshold (the prefix
  // of "5x") would evict it.
  const std::string cache = scratch("gc");
  const fs::path entry = fs::path(cache) / "7x7" / "wc10y" / "NAND2_X1.lib";
  fs::create_directories(entry.parent_path());
  std::ofstream(entry) << "library(x) {}\n";
  fs::last_write_time(entry, fs::file_time_type::clock::now() - std::chrono::hours(24 * 365 * 5));

  EXPECT_EQ(run(RWSERVED_BIN, "--gc --cache " + cache + " --gc-max-age-ms 5x"), 64);
  EXPECT_TRUE(fs::exists(entry));
  std::size_t files = 0;
  for (const auto& e : fs::recursive_directory_iterator(cache)) files += e.is_regular_file();
  EXPECT_EQ(files, 1u) << "the sweep left a tombstone or journal behind";

  EXPECT_EQ(run(RWSERVED_BIN, "--gc --cache " + cache + " --gc-max-age-ms 5,0"), 64);
  EXPECT_EQ(run(RWSERVED_BIN, "--socket " + cache + "/s.sock --workers 2x"), 64);
  EXPECT_TRUE(fs::exists(entry));
  fs::remove_all(cache);
}

TEST(ToolCli, RwclientWithMalformedCornersExitsSixtyFourWithoutConnecting) {
  // A listening socket nobody accepts on: a client that connected would sit
  // in its backlog, so accept() finding nothing proves it never tried.
  const std::string dir = scratch("client");
  fs::create_directories(dir);
  const std::string path = dir + "/rw.sock";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 8), 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);

  for (const char* corners : {"a:b", "0.5x:0.5", "0,5:0.5", "0.5"}) {
    EXPECT_EQ(run(RWCLIENT_BIN, "--socket " + path +
                                    " merged --attempts 1 --timeout-ms 200 --corners " + corners),
              64)
        << corners;
  }
  EXPECT_EQ(run(RWCLIENT_BIN, "--socket " + path + " ping --timeout-ms 200x"), 64);
  EXPECT_EQ(run(RWCLIENT_BIN, "--socket " + path + " characterize --cell INV_X1 --lp 0.5x"), 64);
  const int conn = ::accept(fd, nullptr, nullptr);
  const int err = errno;
  EXPECT_EQ(conn, -1) << "a usage error still connected to the daemon";
  EXPECT_TRUE(err == EAGAIN || err == EWOULDBLOCK) << std::strerror(err);
  if (conn >= 0) ::close(conn);
  ::close(fd);
  fs::remove_all(dir);
}

TEST(ToolCli, RwchaosWithAMalformedCountExitsSixtyFourAndCreatesNoTrialDirectory) {
  const std::string dir = scratch("chaos");
  EXPECT_EQ(run(RWCHAOS_BIN, "--seeds 3x --dir " + dir), 64);
  EXPECT_EQ(run(RWCHAOS_BIN, "--seeds 3 --seed -1 --dir " + dir), 64);
  EXPECT_EQ(run(RWCHAOS_BIN, "--seeds 3 --seed 1x --dir " + dir), 64);
  EXPECT_FALSE(fs::exists(dir));
}

}  // namespace
