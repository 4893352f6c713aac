// psld --shards 2 in miniature, for the net tests: two psl::net::Server
// loops joined on one SO_REUSEPORT port over one serve::Engine.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "psl/net/client.hpp"
#include "psl/net/server.hpp"
#include "psl/serve/engine.hpp"

namespace psl::test_support {

class Fleet {
 public:
  explicit Fleet(serve::Engine& engine) {
    for (auto& loop : loops_) {
      net::ServerOptions options;
      options.reuse_port = true;
      options.port = port_;
      loop = std::make_unique<net::Server>(engine, options);
      const auto started = loop->start();
      EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error().message);
      if (started.ok()) port_ = *started;
    }
  }

  std::uint16_t port() const noexcept { return port_; }
  net::Server& loop(std::size_t i) { return *loops_[i]; }

  /// Open connections until every loop holds at least `per_loop` of them.
  /// The kernel picks each connection's loop; a ping makes sure the loop
  /// has accepted it before the count is read.
  std::vector<net::Client> clients_on_every_loop(std::size_t per_loop) {
    std::vector<net::Client> clients;
    const auto spread = [&] {
      for (const auto& loop : loops_) {
        if (loop->connection_count() < per_loop) return false;
      }
      return true;
    };
    while (!spread() && clients.size() < 256) {
      auto client = net::Client::connect("127.0.0.1", port_);
      EXPECT_TRUE(client.ok() && client->ping().ok());
      if (!client.ok()) break;
      clients.push_back(*std::move(client));
    }
    EXPECT_TRUE(spread()) << "the kernel kept every connection on one loop";
    return clients;
  }

 private:
  std::array<std::unique_ptr<net::Server>, 2> loops_;
  std::uint16_t port_ = 0;
};

}  // namespace psl::test_support
