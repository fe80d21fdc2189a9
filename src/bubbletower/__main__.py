from . import cli

raise SystemExit(cli.main())
